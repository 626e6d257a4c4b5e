(* E13 — the compile-time proximity order against dynamic sifting.

   Every compiled model gets the dependency-proximity static order;
   [--reorder auto] adds Rudell sifting whenever live nodes grow past
   the threshold.  The question this experiment answers per model: does
   sifting on top of the proximity order shrink the peak enough to pay
   for its sweeps?  The workloads are the arbiter (whose declaration
   order is deliberately adversarial: all request bits, then all
   acknowledge bits, then the token — the proximity order repairs it
   at compile time), a binary counter (nearly order-insensitive, so
   any cost sifting adds shows up undiluted) and the dining
   philosophers (process interleaving over shared forks).

   Both configurations must report identical verdicts; only node
   counts and times may move. *)

(* The round-robin token arbiter of examples/models/arbiter.smv,
   parameterised over the number of users and generated with the same
   adversarial declaration order. *)
let arbiter_smv n =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "MODULE main\nVAR\n";
  for i = 0 to n - 1 do
    pf "  req%d : boolean;\n" i
  done;
  for i = 0 to n - 1 do
    pf "  ack%d : boolean;\n" i
  done;
  pf "  token : {%s};\n"
    (String.concat ", " (List.init n (Printf.sprintf "t%d")));
  pf "ASSIGN\n";
  for i = 0 to n - 1 do
    pf "  init(req%d) := FALSE;\n  init(ack%d) := FALSE;\n" i i
  done;
  pf "  init(token) := t0;\n";
  pf "  next(token) := case\n";
  for i = 0 to n - 2 do
    pf "      token = t%d : t%d;\n" i (i + 1)
  done;
  pf "      TRUE : t0;\n    esac;\n";
  for i = 0 to n - 1 do
    pf "  next(ack%d) := req%d & token = t%d;\n" i i i
  done;
  for i = 0 to n - 1 do
    pf
      "  next(req%d) := case ack%d : {TRUE, FALSE}; req%d : TRUE; TRUE : \
       {TRUE, FALSE}; esac;\n"
      i i i
  done;
  pf "SPEC AG !(ack0 & ack1)\n";
  pf "SPEC AG (req0 -> AF ack0)\n";
  pf "SPEC AG (req1 -> AF !req1)\n";
  Buffer.contents b

(* A plain n-bit binary counter: bit k toggles when all lower bits are
   1.  EF(all ones) walks the whole 2^n chain backwards. *)
let counter_smv n =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "MODULE main\nVAR\n";
  for i = 0 to n - 1 do
    pf "  b%d : boolean;\n" i
  done;
  pf "ASSIGN\n";
  for i = 0 to n - 1 do
    pf "  init(b%d) := FALSE;\n" i
  done;
  for i = 0 to n - 1 do
    let lower = List.init i (Printf.sprintf "b%d") in
    let all_lower = match lower with [] -> "TRUE" | l -> String.concat " & " l in
    pf "  next(b%d) := case %s : !b%d; TRUE : b%d; esac;\n" i all_lower i i
  done;
  pf "SPEC EF (%s)\n" (String.concat " & " (List.init n (Printf.sprintf "b%d")));
  pf "SPEC AG (b0 -> EF !b0)\n";
  Buffer.contents b

(* The scaled philosophers of bench/workloads.ml with a safety and a
   reachability spec. *)
let philosophers_smv n =
  Workloads.philosophers_smv n
  ^ "SPEC AG !(p0.eating & p1.eating)\n"
  ^ Printf.sprintf "SPEC EF (%s)\n"
      (String.concat " & " (List.init n (Printf.sprintf "p%d.st = left")))

type config = Proximity | Auto

let config_name = function Proximity -> "proximity" | Auto -> "auto"

(* One measured run: fresh manager, check every spec sequentially (the
   CLI's single-job path).  [Proximity] is what [--reorder none] runs;
   [Auto] mirrors [--reorder auto] at the CLI's default threshold: the
   live-node trigger consumed at fixpoint checkpoints. *)
let run_config src config =
  let c = Smv.load_string src in
  let m = c.Smv.Compile.model in
  let man = m.Kripke.man in
  let check () =
    List.map (fun (_, f) -> Ctl.Check.holds m f) c.Smv.Compile.specs
  in
  let verdicts, t =
    Harness.time_once (fun () ->
        match config with
        | Proximity -> check ()
        | Auto ->
          Bdd.Reorder.set_auto man
            (Some Server.Engine.default_opts.Server.Engine.reorder_threshold);
          Bdd.Reorder.with_checkpoints man check)
  in
  (verdicts, t, Bdd.stats man)

let sweep ~workload src rows =
  let p_verdicts, p_t, p = run_config src Proximity in
  let a_verdicts, a_t, a = run_config src Auto in
  if p_verdicts <> a_verdicts then
    failwith (Printf.sprintf "E13: %s: auto changed a verdict" workload);
  let ratio = float_of_int p.Bdd.peak_nodes /. float_of_int (max 1 a.Bdd.peak_nodes) in
  Harness.emit_json ~experiment:"E13"
    [
      ("workload", Harness.String workload);
      ("proximity_peak_nodes", Harness.Int p.Bdd.peak_nodes);
      ("proximity_check_s", Harness.Float p_t);
      ("auto_peak_nodes", Harness.Int a.Bdd.peak_nodes);
      ("auto_reorders", Harness.Int a.Bdd.reorders);
      ("auto_reorder_ms", Harness.Float a.Bdd.reorder_ms);
      ("auto_check_s", Harness.Float a_t);
      ("peak_proximity_vs_auto", Harness.Float ratio);
      ( "verdicts",
        Harness.String
          (String.concat ""
             (List.map (fun v -> if v then "T" else "F") p_verdicts)) );
    ];
  rows
  @ [
      [
        workload;
        string_of_int p.Bdd.peak_nodes;
        Harness.seconds_string p_t;
        string_of_int a.Bdd.peak_nodes;
        string_of_int a.Bdd.reorders;
        Harness.seconds_string a_t;
        Printf.sprintf "%.2fx" ratio;
      ];
    ]

let run ~full =
  let arbs = if full then [ 8; 10 ] else [ 8 ] in
  let ctrs = if full then [ 10; 12 ] else [ 10 ] in
  let phils = if full then [ 6; 8 ] else [ 6 ] in
  let rows =
    List.fold_left
      (fun rows (workload, src) -> sweep ~workload src rows)
      []
      (List.map (fun n -> (Printf.sprintf "arbiter%d" n, arbiter_smv n)) arbs
      @ List.map (fun n -> (Printf.sprintf "counter%d" n, counter_smv n)) ctrs
      @ List.map
          (fun n -> (Printf.sprintf "philosophers%d" n, philosophers_smv n))
          phils)
  in
  Harness.print_table
    ~title:
      "E13: proximity order vs --reorder auto (identical verdicts enforced)"
    ~header:
      [ "workload"; "peak (prox.)"; "check (prox.)"; "peak (auto)"; "sifts";
        "check (auto)"; "peak ratio" ]
    rows;
  Harness.note
    "proximity: the compile-time order every model gets (--reorder none).";
  Harness.note
    "auto: the same order plus sifting at fixpoint checkpoints whenever live";
  Harness.note
    "nodes pass the CLI's default threshold.  peak ratio > 1 means sifting";
  Harness.note "shrank the peak."

let bechamel =
  let src = lazy (arbiter_smv 6) in
  Bechamel.Test.make ~name:"e13-arbiter6-auto-reorder"
    (Bechamel.Staged.stage (fun () ->
         run_config (Lazy.force src) Auto))
