(* Benchmark runner: runs one workload (or all of them) against the
   checker binary and prints one metric per line, then a final JSON
   result line:

     perfbench.exe --checker EXE --workload NAME --seed N --seconds S
                   --trace 0|1 [--held-out]

   Workloads: cli-verdict, cli-evidence, serve-mixed, or "all" (every
   workload untraced, one block each).  --trace 0 reports the
   end-to-end metrics, --trace 1 the per-layer ones from an in-process
   replay of the same inputs.  Exit status 1 when any output was
   wrong; the result line still carries the numbers. *)

let workloads = [ "cli-verdict"; "cli-evidence"; "serve-mixed" ]

(* Seeds at or above this are reserved for --held-out rechecks, so a
   claim can be rechecked on inputs nobody tuned against. *)
let held_out_base = 1 lsl 40

(* A single-workload run must end within three minutes. *)
let time_limit = 170

let usage () =
  prerr_endline
    "usage: perfbench --checker EXE --workload {cli-verdict|cli-evidence|\
     serve-mixed|all} --seed N --seconds S --trace {0|1} [--held-out]";
  exit 2

(* The commit, when the checkout is a git repository. *)
let commit () =
  if not (Sys.file_exists ".git") then None
  else
    match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
    | ic ->
      let out = try String.trim (In_channel.input_all ic) with _ -> "" in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 when out <> "" -> Some out
      | _ -> None)
    | exception Unix.Unix_error _ -> None

(* A digest of the checker's sources, so results are attributable even
   in a checkout that is not a git repository. *)
let source_md5 () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
                   || Filename.check_suffix p ".c" || f = "dune"
           then [ p ]
           else [])
  in
  let paths = files "lib" @ files "bin" in
  Digest.to_hex
    (Digest.string
       (String.concat "\000"
          (List.concat_map (fun p -> [ p; Digest.to_hex (Digest.file p) ]) paths)))

let metadata ~workload ~seed ~held_out ~trace (r : Util.result) =
  let open Server.Json in
  let commit = match commit () with Some c -> Str c | None -> Null in
  Obj
    [
      ("workload", Str workload);
      ("seed", Num (float_of_int seed));
      ("held_out", Bool held_out);
      ("trace", Bool trace);
      ("commit", commit);
      ("source_md5", Str (source_md5 ()));
      ("nproc", Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Str Sys.ocaml_version);
      ( "samples",
        Obj (List.map (fun (k, n) -> (k, Num (float_of_int n))) r.Util.samples) );
      ( "raw",
        Obj (List.map (fun (k, v, unit) -> (k, Obj [ ("value", Num v); ("unit", Str unit) ]))
               r.Util.raw) );
      ("errors", Arr (List.map (fun e -> Str e) r.Util.errors));
    ]

let result_json (r : Util.result) =
  let open Server.Json in
  Obj
    [
      ("correct", Bool (r.Util.errors = []));
      ("attempted", Num (float_of_int r.Util.attempted));
      ("failed", Num (float_of_int r.Util.failed));
      ( "metrics",
        Obj
          (List.map
             (fun (name, v, unit) -> (name, Obj [ ("value", Num v); ("unit", Str unit) ]))
             r.Util.metrics) );
    ]

let run_one ~exe ~workload ~seed ~seconds ~trace =
  let dir =
    Filename.concat ".perfbench_work"
      (Printf.sprintf "%s-%d-%s" workload seed (if trace then "trace" else "e2e"))
  in
  Util.mkdir_p dir;
  match (workload, trace) with
  | ("cli-verdict" | "cli-evidence"), false ->
    Cli.run ~exe ~root:"." ~dir ~seed ~seconds
      ~workload:(if workload = "cli-verdict" then `Verdict else `Evidence)
  | ("cli-verdict" | "cli-evidence"), true ->
    (* The traced run does a fixed amount of work: the oracle and three
       replays of the untraced run's first pass. *)
    Replay.run_cli ~root:"." ~dir ~seed
      ~workload:(if workload = "cli-verdict" then `Verdict else `Evidence)
  | "serve-mixed", false -> Serve.run ~exe ~dir ~seed ~seconds
  | "serve-mixed", true -> Replay.run_serve ~exe ~dir ~seed
  | _ -> usage ()

let report ~workload ~seed ~held_out ~trace (r : Util.result) =
  let meta = metadata ~workload ~seed ~held_out ~trace r in
  List.iter (fun e -> Printf.eprintf "perfbench: %s: %s\n" workload e) r.Util.errors;
  Printf.printf "# %s\n" (Server.Json.to_string meta);
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-34s %14.6g %s\n" name v unit)
    r.Util.metrics;
  let final = result_json r in
  let dir = Filename.concat ".perfbench_work" "results" in
  Util.mkdir_p dir;
  Util.write_file
    (Filename.concat dir
       (Printf.sprintf "%s-%d-%s.json" workload seed (if trace then "trace" else "e2e")))
    (Server.Json.to_string (Server.Json.Obj [ ("meta", meta); ("result", final) ]) ^ "\n");
  final

let () =
  let exe = ref "" and workload = ref "" and seed = ref (-1) and seconds = ref 20.
  and trace = ref 0 and held_out = ref false in
  Arg.parse
    [
      ("--checker", Arg.Set_string exe, "EXE the smv_check binary");
      ("--workload", Arg.Set_string workload, "NAME workload, or all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--held-out", Arg.Set held_out, " map the seed into the held-out range");
    ]
    (fun _ -> usage ())
    "perfbench";
  if !exe = "" || !workload = "" || !seed < 0 || !seed >= held_out_base
     || (!trace <> 0 && !trace <> 1)
  then usage ();
  let seed = if !held_out then !seed + held_out_base else !seed in
  let exe = if Filename.is_relative !exe then Filename.concat (Sys.getcwd ()) !exe else !exe in
  (* A broken pipe to a dead server must surface as an error, not kill
     the runner. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let trace = !trace = 1 in
  if !workload = "all" then begin
    let ok =
      List.for_all Fun.id
        (List.map
           (fun workload ->
             Printf.printf "== %s\n%!" workload;
             let r = run_one ~exe ~workload ~seed ~seconds:!seconds ~trace in
             ignore (report ~workload ~seed ~held_out:!held_out ~trace r);
             r.Util.errors = [])
           workloads)
    in
    exit (if ok then 0 else 1)
  end
  else begin
    if not (List.mem !workload workloads) then usage ();
    Util.deadline time_limit;
    let r = run_one ~exe ~workload:!workload ~seed ~seconds:!seconds ~trace in
    let final = report ~workload:!workload ~seed ~held_out:!held_out ~trace r in
    print_endline (Server.Json.to_string final);
    exit (if r.Util.errors = [] then 0 else 1)
  end
