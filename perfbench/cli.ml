(* The cli-verdict and cli-evidence workloads: sequential one-shot
   [smv_check] processes, closed loop, one at a time.  Each invocation
   is timed from spawn to reap; [wait4] also yields the child's own
   peak resident set. *)

type invocation = { code : int; wall_s : float; maxrss_kb : int; stdout : string }

(* Run [exe args], stdout to [out_path] (read back afterwards: trace
   output is too large for an unread pipe), stderr discarded. *)
let invoke ~exe ~out_path args =
  let out =
    Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = Util.now () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close null)
      (fun () ->
        Util.spawn exe (Array.of_list (exe :: args)) ~stdin:Unix.stdin
          ~stdout:out ~stderr:null)
  in
  let code, maxrss_kb = Util.reap pid in
  let wall_s = Util.now () -. t0 in
  { code; wall_s; maxrss_kb; stdout = Util.read_file out_path }

(* The verdict lines of a one-shot run, in spec order. *)
let verdicts output =
  let prefix = "-- specification " in
  String.split_on_char '\n' output
  |> List.filter_map (fun line ->
         if not (String.starts_with ~prefix line) then None
         else if String.ends_with ~suffix:" is true" line then Some `True
         else if String.ends_with ~suffix:" is false" line then Some `False
         else Some `Undetermined)

let count_sub ~sub s =
  let n = String.length sub in
  let rec go i acc =
    match String.index_from_opt s i sub.[0] with
    | None -> acc
    | Some j ->
      if j + n <= String.length s && String.sub s j n = sub then
        go (j + n) (acc + 1)
      else go (j + 1) acc
  in
  if n = 0 then 0 else go 0 0

(* Check one invocation's output against the verdict table.  Returns
   whether the operation failed (undetermined / budget / error exit);
   wrong answers are recorded in [errs]. *)
let check_output errs ~evidence (m : Models.model) (inv : invocation) =
  let expected = List.map snd m.Models.expected in
  let got = verdicts inv.stdout in
  let undetermined = List.mem `Undetermined got in
  if inv.code = 3 then
    Util.error errs "%s: exit 3 (certification or input failure)" m.Models.name;
  if List.length got <> List.length expected then
    Util.error errs "%s: %d verdict lines, expected %d" m.Models.name
      (List.length got) (List.length expected)
  else if not undetermined then begin
    List.iteri
      (fun i (g, e) ->
        if (g = `True) <> e then
          Util.error errs "%s: spec %d is %b, expected %b" m.Models.name
            (i + 1) (g = `True) e)
      (List.combine got expected);
    let want_code = if List.for_all Fun.id expected then 0 else 1 in
    if inv.code <> want_code && inv.code <> 3 then
      Util.error errs "%s: exit %d, expected %d" m.Models.name inv.code
        want_code
  end;
  if evidence && not undetermined then begin
    (* Every false spec ships a counterexample with its length line. *)
    let falses = List.length (List.filter (fun b -> not b) expected) in
    let lines = count_sub ~sub:"\n-- trace length: " inv.stdout in
    if lines <> falses then
      Util.error errs "%s: %d counterexamples, expected %d" m.Models.name
        lines falses;
    (* ... and every true existential spec a witness. *)
    let trues_ex =
      List.length
        (List.filter
           (fun (text, b) -> b && String.starts_with ~prefix:"E" text)
           m.Models.expected)
    in
    let shown = count_sub ~sub:"-- as demonstrated by the following" inv.stdout in
    if shown <> falses + trues_ex then
      Util.error errs "%s: %d traces, expected %d" m.Models.name shown
        (falses + trues_ex);
    (* The counter's deep EF witness is the shortest path: exactly
       2^bits states, numbered 1.1 .. 1.2^bits. *)
    match Scanf.sscanf_opt m.Models.name "counter-%d%!" Fun.id with
    | Some bits ->
      let state k = Printf.sprintf "\nstate 1.%d:\n" k in
      let n = 1 lsl bits in
      if count_sub ~sub:(state n) inv.stdout <> 1
         || count_sub ~sub:(state (n + 1)) inv.stdout <> 0
      then
        Util.error errs "%s: EF witness is not %d states long" m.Models.name n
    | None -> ()
  end;
  undetermined || inv.code = 2 || inv.code = 3

let args ~evidence path = if evidence then [ "--certify"; path ] else [ "-q"; path ]

(* Write every distinct model of the pass; returns name -> path. *)
let write_models ~dir pass =
  List.map
    (fun ((m : Models.model), _) ->
      let path = Filename.concat dir (m.Models.name ^ ".smv") in
      Util.write_file path m.Models.source;
      (m.Models.name, path))
    pass

let pass_of workload ~root =
  match workload with
  | `Verdict -> Models.verdict_pass ()
  | `Evidence -> Models.evidence_pass ~root

(* Set-up is the generation of the pass's inputs, timed [setups]
   times before the pass and once after every probe during it (so its
   median sees the same machine as the checks); the files are written
   once, untimed. *)
let setups = 5

let run ~exe ~root ~dir ~workload ~seed ~seconds =
  let evidence = workload = `Evidence in
  let setup_times = ref [] in
  let setup () =
    let t0 = Util.now () in
    let pass = pass_of workload ~root in
    setup_times := (Util.now () -. t0) :: !setup_times;
    pass
  in
  let pass = List.hd (List.init setups (fun _ -> setup ())) in
  let paths = write_models ~dir pass in
  let out_path = Filename.concat dir "stdout.txt" in
  (* Untimed warm-up: one quick invocation brings the binary into the
     page cache. *)
  ignore (invoke ~exe ~out_path [ "-q"; snd (List.hd paths) ]);
  let errs = Util.new_errors () in
  let rng = Random.State.make [| seed |] in
  (* A pass's time is the sum of its invocations' wall times: the
     runner's own output checks and the probes between invocations
     are not the checker's work. *)
  let walls = ref [] and passes = ref [] and failed = ref 0 and rss = ref 0 in
  let probes = ref (List.init 3 (fun _ -> Probe.run ())) in
  let rec loop () =
    let order = Models.expand_shuffle rng pass in
    let pass_s = ref 0. in
    List.iteri
      (fun i (m : Models.model) ->
        let inv =
          invoke ~exe ~out_path (args ~evidence (List.assoc m.Models.name paths))
        in
        walls := inv.wall_s :: !walls;
        pass_s := !pass_s +. inv.wall_s;
        rss := max !rss inv.maxrss_kb;
        if check_output errs ~evidence m inv then incr failed;
        if i mod 3 = 2 then begin
          probes := Probe.run () :: !probes;
          ignore (setup ())
        end)
      order;
    passes := !pass_s :: !passes;
    (* Another pass only if it fits in the measuring time. *)
    if List.fold_left ( +. ) 0. !passes +. Util.mean !passes <= seconds then loop ()
  in
  loop ();
  let walls_ms = List.map (fun s -> s *. 1000.) !walls in
  let n = List.length walls_ms in
  let elapsed = List.fold_left ( +. ) 0. !passes in
  let setup_s = Util.median !setup_times in
  let measured =
    [
      ("batch_s", Util.median !passes, "s");
      ("check_ms_p50", Util.median walls_ms, "ms");
      ("check_ms_p90", Util.quantile 0.9 walls_ms, "ms");
      ("rtt_ms_p50", Util.median walls_ms, "ms");
      ("rtt_ms_p90", Util.quantile 0.9 walls_ms, "ms");
      ("served_per_s", float_of_int n /. elapsed, "1/s");
      ("peak_rss_mb", float_of_int !rss /. 1024., "MB");
    ]
  in
  {
    Util.attempted = n;
    failed = !failed;
    metrics = ("setup_s", setup_s, "s") :: Util.rescale (Probe.slowdown !probes) measured;
    raw = measured @ [ ("probe_ms", Util.median !probes *. 1000., "ms") ];
    samples =
      [ ("checks", n); ("passes", List.length !passes);
        ("setups", List.length !setup_times); ("probes", List.length !probes) ];
    errors = Util.error_list errs;
  }
