(* Smoke test for the --reorder contract, run via
   `dune build @reorder-smoke`: reordering must never change what the
   checker says, only how many nodes it takes to say it.  Each model
   is checked under --reorder none and under one or more --reorder
   auto variants; every output line outside the --stats block (which
   reports node counts and reorder activity) must be byte-identical,
   trace states included.

   Models:
   - the arbiter, with --stats: its declaration order is deliberately
     adversarial, so the peak under either mode must also stay at most
     half the declaration order's 84,083 nodes — the compile-time
     proximity order has to be in force;
   - the philosophers under a 50-node sifting threshold, sequential and
     with --jobs 2: sifting fires repeatedly during the checks, so any
     trace state that depended on the variable order would move;
   - the 26-bit counter under a step budget (the governed-breach path:
     reordering must not perturb UNDETERMINED reporting either; the
     budget keeps the deep fixpoint, and hence the alias, fast).
     counter26 runs without --stats: the model-stats line computes the
     full reachable fixpoint, which needs ~2^26 iterations there. *)

let exe = Filename.concat (Filename.concat ".." "bin") "smv_check.exe"

let run args =
  let cmd = Filename.quote_command exe args ^ " 2>&1" in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
  in
  (code, Buffer.contents buf)

let failures = ref 0

let expect what cond =
  if cond then Printf.printf "ok: %s\n%!" what
  else begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" what
  end

let model name =
  Filename.concat (Filename.concat (Filename.concat ".." "examples") "models")
    name

(* The order-independent slice of a run's output: every line before
   the stats block that --stats appends after the last verdict. *)
let verdict_lines out =
  let rec upto acc = function
    | [] -> List.rev acc
    | l :: _ when String.starts_with ~prefix:"BDD manager:" l -> List.rev acc
    | l :: rest -> upto (l :: acc) rest
  in
  String.concat "\n" (upto [] (String.split_on_char '\n' out))

let peak_nodes out =
  String.split_on_char '\n' out
  |> List.find_map (fun l ->
         try Scanf.sscanf l "BDD manager: %d live nodes (peak %d"
               (fun _ peak -> Some peak)
         with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)

(* Half the arbiter's peak in declaration order (84,083 nodes under
   --stats --reorder none before the proximity order became the only
   one). *)
let arbiter_peak_bound = 42_041

let check ?(stats = false) name args variants =
  let args = if stats then args @ [ "--stats" ] else args in
  let none_code, none_out = run (args @ [ "--reorder"; "none" ]) in
  let slice out = if stats then verdict_lines out else out in
  let outs =
    List.map
      (fun variant ->
        let label = String.concat " " variant in
        let code, out = run (args @ variant) in
        expect (Printf.sprintf "%s: %s: exit codes agree" name label)
          (none_code = code);
        expect
          (Printf.sprintf "%s: %s: %s byte-identical" name label
             (if stats then "output outside the stats block" else "output"))
          (slice none_out = slice out);
        if slice none_out <> slice out then
          Printf.printf "--- reorder none ---\n%s\n--- %s ---\n%s\n%!"
            (slice none_out) label (slice out);
        out)
      variants
  in
  none_out :: outs

let () =
  let auto = [ "--reorder"; "auto" ] in
  let outs = check ~stats:true "arbiter" [ model "arbiter.smv" ] [ auto ] in
  List.iter2
    (fun mode out ->
      match peak_nodes out with
      | Some peak ->
        expect
          (Printf.sprintf "arbiter: peak under --reorder %s %d <= %d" mode
             peak arbiter_peak_bound)
          (peak <= arbiter_peak_bound)
      | None -> expect "arbiter: peak node counts parsed" false)
    [ "none"; "auto" ] outs;
  let sift = auto @ [ "--reorder-threshold"; "50" ] in
  ignore
    (check "philosophers" [ model "philosophers.smv" ]
       [ sift; sift @ [ "--jobs"; "2" ] ]);
  (* counter26's first spec needs ~2^26 backward steps; the budget trips
     it into UNDETERMINED quickly in both runs. *)
  ignore
    (check "counter26" [ model "counter26.smv"; "--step-limit"; "64" ] [ auto ]);
  if !failures > 0 then begin
    Printf.printf "%d deviation(s) from the --reorder contract\n%!" !failures;
    exit 1
  end
