(* The traced run: the same inputs as the untraced run, replayed
   in-process through the public functions of each layer, with a span
   and a [Bdd.stats] / fixpoint-counter diff around every call.

   Nothing inside the library is instrumented: each layer is measured
   from outside, at the call boundary.  The fixpoint counters are
   process-wide, so the replay stays on one domain and never overlaps
   two calls.

   Per run: the explicit-state oracle confirms the verdict table on
   every model small enough to enumerate; one untraced replay gives the
   baseline for the tracing overhead; two traced replays must agree on
   every exact count; the first one's spans are written as Chrome
   trace-event JSON. *)

module Json = Server.Json

(* ------------------------------------------------------------------ *)
(* Spans *)

type span = {
  id : int;
  name : string;
  parent : int;  (* 0 at the top *)
  req : int;     (* the check or request the span belongs to *)
  t0 : float;
  mutable t1 : float;
}

(* Counters diffed around each layer call. *)
type counts = {
  mutable ite_misses : int;
  mutable relprod_misses : int;
  mutable hits : int;
  mutable misses : int;
  mutable nodes : int;
  mutable gc_runs : int;
  mutable eu : int;
  mutable eg : int;
  mutable outer : int;
  mutable rounds : int;
  mutable rings : int;
}

let zero_counts () =
  { ite_misses = 0; relprod_misses = 0; hits = 0; misses = 0; nodes = 0;
    gc_runs = 0; eu = 0; eg = 0; outer = 0; rounds = 0; rings = 0 }

let layers = [ "smv"; "kripke"; "ctl"; "counterex"; "robust" ]

type tracer = {
  on : bool;
  t_origin : float;
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;
  mutable req : int;
  time_ms : (string, float ref) Hashtbl.t;  (* per span name *)
  counts : (string, counts) Hashtbl.t;      (* per layer *)
  (* exact outcome counts *)
  mutable trace_states : int;
  mutable render_bytes : int;
  mutable peak_nodes : int;
}

let tracer ~on =
  let counts = Hashtbl.create 8 in
  List.iter (fun l -> Hashtbl.replace counts l (zero_counts ())) layers;
  { on; t_origin = Util.now (); spans = []; next_id = 1; stack = []; req = 0;
    time_ms = Hashtbl.create 16; counts; trace_states = 0; render_bytes = 0;
    peak_nodes = 0 }

let span t name f =
  if not t.on then f ()
  else begin
    let sp =
      { id = t.next_id; name; parent = (match t.stack with p :: _ -> p | [] -> 0);
        req = t.req; t0 = Util.now (); t1 = 0. }
    in
    t.next_id <- t.next_id + 1;
    t.stack <- sp.id :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        sp.t1 <- Util.now ();
        t.stack <- List.tl t.stack;
        t.spans <- sp :: t.spans;
        let r =
          match Hashtbl.find_opt t.time_ms name with
          | Some r -> r
          | None ->
            let r = ref 0. in
            Hashtbl.replace t.time_ms name r;
            r
        in
        r := !r +. ((sp.t1 -. sp.t0) *. 1000.))
      f
  end

type fix = { f_eu : int; f_eg : int; f_outer : int; f_rounds : int; f_rings : int }

let fix () =
  let c = Ctl.Check.fixpoint_stats () and f = Ctl.Fair.fixpoint_stats () in
  {
    f_eu = c.Ctl.Check.eu_iterations;
    f_eg = c.Ctl.Check.eg_iterations;
    f_outer = f.Ctl.Fair.outer_iterations;
    f_rounds = f.Ctl.Fair.lockstep_rounds;
    f_rings = c.Ctl.Check.ring_layers + f.Ctl.Fair.ring_layers;
  }

let add_diff t layer (b1 : Bdd.stats) (b0 : Bdd.stats option) fx1 fx0 =
  let c = Hashtbl.find t.counts layer in
  let d = match b0 with Some b0 -> Bdd.diff_stats b1 b0 | None -> b1 in
  c.ite_misses <- c.ite_misses + d.Bdd.ite.Bdd.misses;
  c.relprod_misses <- c.relprod_misses + d.Bdd.relprod.Bdd.misses;
  c.hits <- c.hits + Bdd.cache_hits d;
  c.misses <- c.misses + Bdd.cache_misses d;
  c.nodes <- c.nodes + d.Bdd.total_nodes;
  c.gc_runs <- c.gc_runs + d.Bdd.gc_runs;
  c.eu <- c.eu + (fx1.f_eu - fx0.f_eu);
  c.eg <- c.eg + (fx1.f_eg - fx0.f_eg);
  c.outer <- c.outer + (fx1.f_outer - fx0.f_outer);
  c.rounds <- c.rounds + (fx1.f_rounds - fx0.f_rounds);
  c.rings <- c.rings + (fx1.f_rings - fx0.f_rings);
  t.peak_nodes <- max t.peak_nodes b1.Bdd.peak_nodes

(* A layer call on an existing manager: span + counter diffs. *)
let call t ~layer ~name man f =
  if not t.on then f ()
  else begin
    let b0 = Bdd.stats man and fx0 = fix () in
    let r = span t name f in
    add_diff t layer (Bdd.stats man) (Some b0) (fix ()) fx0;
    r
  end

(* Compilation creates its manager: everything on it is compile work. *)
let compile t source =
  let ast = span t "smv.parse" (fun () -> Smv.Parser.program source) in
  let fx0 = fix () in
  let c = span t "smv.compile" (fun () -> Smv.Compile.compile ast) in
  if t.on then
    add_diff t "smv" (Bdd.stats c.Smv.Compile.model.Kripke.man) None (fix ()) fx0;
  c

(* ------------------------------------------------------------------ *)
(* One specification, as [Server.Engine.check_one] runs it with the
   default options: the fair verdict, then (with traces) the witness or
   counterexample and its rendering, then (with certify) the
   certificate.  Traces are also re-validated by [Counterex.Validate]. *)

(* The engine's rule: true existential specs get a witness, false ones
   a counterexample. *)
let rec existential = function
  | Ctl.EX _ | Ctl.EF _ | Ctl.EG _ | Ctl.EU _ -> true
  | Ctl.Not f -> not (existential f)
  | _ -> false

let check_spec t errs ~what ~traces ~certify (m : Kripke.t) (f : Ctl.t) expected =
  let man = m.Kripke.man in
  let holds = call t ~layer:"ctl" ~name:"ctl.sat" man (fun () -> Ctl.Fair.holds m f) in
  if holds <> expected then Util.error errs "%s: verdict %b, expected %b" what holds expected;
  if traces then begin
    let tr =
      call t ~layer:"counterex" ~name:"counterex.explain" man (fun () ->
          match
            if holds then (if existential f then Counterex.Explain.witness m f else None)
            else Counterex.Explain.counterexample m f
          with
          | tr -> tr
          | exception Counterex.Explain.Cannot_explain _ -> None)
    in
    match tr with
    | None ->
      if (not holds) || existential f then Util.error errs "%s: no trace" what
    | Some tr ->
      t.trace_states <- t.trace_states + Kripke.Trace.length tr;
      let text =
        call t ~layer:"kripke" ~name:"kripke.render" man (fun () ->
            Format.asprintf "%a" (Kripke.Trace.pp m) tr)
      in
      t.render_bytes <- t.render_bytes + String.length text;
      (match
         span t "validate" (fun () ->
             Result.bind (Counterex.Validate.path_ok m tr) (fun () ->
                 Counterex.Validate.starts_at m m.Kripke.init tr))
       with
      | Ok () -> ()
      | Error e ->
        Util.error errs "%s: trace fails validation: %s" what
          (Format.asprintf "%a" Counterex.Validate.pp_error e));
      if certify then
        match
          call t ~layer:"robust" ~name:"robust.certify" man (fun () ->
              if holds then Robust.Certify.witness m f tr
              else Robust.Certify.counterexample m f tr)
        with
        | Ok () -> ()
        | Error msg -> Util.error errs "%s: certification failed: %s" what msg
  end

(* ------------------------------------------------------------------ *)
(* The explicit-state oracle: shares no fixpoint code with the
   symbolic checker.  The model is restricted to its reachable states
   (verdicts at the initial states are unchanged: no path leaves the
   reachable set) so the bridge enumerates at most 2^16 states. *)

let oracle_limit = 65536

let oracle errs (md : Models.model) ~extra =
  let c = Smv.load_string md.Models.source in
  let m = c.Smv.Compile.model in
  let reach = Kripke.reachable m in
  if Kripke.count_states m reach > float_of_int oracle_limit then false
  else begin
    let r =
      Kripke.make ~man:m.Kripke.man ~vars:(Array.to_list m.Kripke.vars)
        ~nbits:m.Kripke.nbits ~space:reach ~init:m.Kripke.init
        ~trans:m.Kripke.trans ~fairness:m.Kripke.fairness ~labels:m.Kripke.labels ()
    in
    let fb = Robust.Fallback.build ~max_states:oracle_limit r in
    let specs =
      List.combine c.Smv.Compile.specs md.Models.expected
      @ List.map
          (fun (text, e) -> ((text, Smv.Compile.compile_expr c text), (text, e)))
          extra
    in
    List.iteri
      (fun i ((_, f), (_, expected)) ->
        if Robust.Fallback.holds fb ~fair:true f <> expected then
          Util.error errs "%s: explicit-state oracle disagrees with the table on spec %d"
            md.Models.name (i + 1))
      specs;
    true
  end

(* ------------------------------------------------------------------ *)
(* Metrics *)

let time t name =
  match Hashtbl.find_opt t.time_ms name with Some r -> !r | None -> 0.

(* The exact counts: these must repeat bit for bit across replays. *)
let exact_counts t =
  let c l = Hashtbl.find t.counts l in
  let steps l = let c = c l in c.eu + c.eg + c.outer + c.rounds in
  let ctl = c "ctl" in
  (* Rings are saved by Ctl's ring fixpoints on behalf of the witness
     and certificate layers, so they are summed over every caller. *)
  let rings = List.fold_left (fun a l -> a + (c l).rings) 0 layers in
  [
    ("smv.compile_nodes", float_of_int (c "smv").nodes);
    ("kripke.render_bytes", float_of_int t.render_bytes);
    ("ctl.eu_iterations", float_of_int ctl.eu);
    ("ctl.eg_iterations", float_of_int ctl.eg);
    ("ctl.fair_outer_iterations", float_of_int ctl.outer);
    ("ctl.lockstep_rounds", float_of_int ctl.rounds);
    ("ctl.ring_layers", float_of_int rings);
    ("counterex.fixpoint_steps", float_of_int (steps "counterex"));
    ("counterex.trace_states", float_of_int t.trace_states);
    ("robust.certify_fixpoint_steps", float_of_int (steps "robust"));
  ]
  @ List.concat_map
      (fun l ->
        let c = c l in
        let sfx k = Printf.sprintf "bdd.%s.%s" k l in
        [
          (sfx "ite_misses", float_of_int c.ite_misses);
          (sfx "relprod_misses", float_of_int c.relprod_misses);
          ( sfx "cache_hit_ratio",
            if c.hits + c.misses = 0 then 0.
            else float_of_int c.hits /. float_of_int (c.hits + c.misses) );
          (sfx "total_nodes", float_of_int c.nodes);
          (sfx "gc_runs", float_of_int c.gc_runs);
        ])
      layers
  @ [ ("bdd.peak_nodes", float_of_int t.peak_nodes) ]

let unit_of name =
  if String.ends_with ~suffix:"_ms" name then "ms"
  else if String.ends_with ~suffix:"_ratio" name
          || String.starts_with ~prefix:"bdd.cache_hit_ratio" name then "ratio"
  else if String.ends_with ~suffix:"_bytes" name then "bytes"
  else if String.ends_with ~suffix:"us_per_state" name then "us"
  else "count"

let layer_metrics t =
  let timed =
    [
      ("smv.parse_ms", time t "smv.parse");
      ("smv.compile_ms", time t "smv.compile");
      ("kripke.reach_ms", time t "kripke.reach");
      ("kripke.render_ms", time t "kripke.render");
      ("ctl.sat_ms", time t "ctl.sat");
      ("counterex.explain_ms", time t "counterex.explain");
      ( "counterex.us_per_state",
        if t.trace_states = 0 then 0.
        else time t "counterex.explain" *. 1000. /. float_of_int t.trace_states );
      ("robust.certify_ms", time t "robust.certify");
    ]
  in
  List.map (fun (n, v) -> (n, v, unit_of n)) (timed @ exact_counts t)

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let export_chrome t ~path ~workload ~seed =
  let us x = Json.Num (Float.round ((x -. t.t_origin) *. 1e6)) in
  let event sp =
    Json.Obj
      [
        ("name", Json.Str sp.name);
        ("cat", Json.Str (List.hd (String.split_on_char '.' sp.name)));
        ("ph", Json.Str "X");
        ("ts", us sp.t0);
        ("dur", Json.Num (Float.round ((sp.t1 -. sp.t0) *. 1e6)));
        ("pid", Json.Num 1.);
        ("tid", Json.Num 1.);
        ( "args",
          Json.Obj
            [
              ("id", Json.Num (float_of_int sp.id));
              ("parent", Json.Num (float_of_int sp.parent));
              ("request", Json.Num (float_of_int sp.req));
            ] );
      ]
  in
  let spans = List.sort (fun a b -> compare a.id b.id) t.spans in
  Util.write_file path
    (Json.to_string
       (Json.Obj
          [
            ("traceEvents", Json.Arr (List.map event spans));
            ("displayTimeUnit", Json.Str "ms");
            ( "otherData",
              Json.Obj [ ("workload", Json.Str workload); ("seed", Json.Num (float_of_int seed)) ] );
          ]))

(* Untraced, traced, traced again: overhead baseline, per-layer
   numbers, exact-count self-check.  [pass t] replays the inputs once
   and returns how many checks it made. *)
let three_replays errs ~dir ~workload ~seed pass =
  let timed on =
    let t = tracer ~on in
    let t0 = Util.now () in
    let n = pass t in
    (t, n, Util.now () -. t0)
  in
  let _, n, base_s = timed false in
  let t1, _, traced_s = timed true in
  let t2, _, _ = timed true in
  List.iter2
    (fun (name, a) (_, b) ->
      if a <> b then Util.error errs "exact count %s differs across replays: %g vs %g" name a b)
    (exact_counts t1) (exact_counts t2);
  export_chrome t1 ~path:(Filename.concat dir "trace.json") ~workload ~seed;
  let rate s = float_of_int n /. s in
  ( t1,
    n,
    [
      ("trace.overhead_batch_s", traced_s -. base_s, "s");
      ("trace.overhead_served_per_s", rate traced_s -. rate base_s, "1/s");
    ],
    List.length t1.spans )

let server_zero =
  [
    ("server.check_ms_p50", 0., "ms");
    ("server.overhead_ms_p50", 0., "ms");
    ("server.overhead_ms_p99", 0., "ms");
    ("server.rtt_ms_p99", 0., "ms");
    ("server.warm_ratio", 0., "ratio");
    ("server.reach_reused_ratio", 0., "ratio");
    ("server.reply_bytes", 0., "bytes");
    ("server.decode_ms", 0., "ms");
  ]

(* ------------------------------------------------------------------ *)
(* cli-verdict / cli-evidence *)

let run_cli ~root ~dir ~seed ~workload =
  let evidence = workload = `Evidence in
  let errs = Util.new_errors () in
  let pass = Cli.pass_of workload ~root in
  let oracle_checked =
    List.length (List.filter (fun (md, _) -> oracle errs md ~extra:[]) pass)
  in
  (* The untraced run's first pass order. *)
  let order = Models.expand_shuffle (Random.State.make [| seed |]) pass in
  let replay t =
    List.iteri
      (fun k (md : Models.model) ->
        t.req <- k;
        span t "check" (fun () ->
            let c = compile t md.Models.source in
            List.iter2
              (fun (_, f) (text, expected) ->
                check_spec t errs ~what:(md.Models.name ^ ": " ^ text) ~traces:evidence
                  ~certify:evidence c.Smv.Compile.model f expected)
              c.Smv.Compile.specs md.Models.expected))
      order;
    List.length order
  in
  let name = if evidence then "cli-evidence" else "cli-verdict" in
  let t, n, overhead, spans = three_replays errs ~dir ~workload:name ~seed replay in
  {
    Util.attempted = n;
    failed = 0;
    metrics = layer_metrics t @ server_zero @ overhead;
    raw = [];
    samples = [ ("checks", n); ("oracle_models", oracle_checked); ("spans", spans) ];
    errors = Util.error_list errs;
  }

(* ------------------------------------------------------------------ *)
(* serve-mixed: the client side of one socket pass gives the server.*
   metrics; the replay goes through the server's own pool
   ([Server.Cache.acquire]/[release]) in the socket pass's request
   order, after the same warm-up. *)

let run_serve ~exe ~dir ~seed =
  let s = Serve.open_client ~exe ~dir in
  let errs = s.Serve.errs in
  let reqs = Serve.pass_requests ~seed s.Serve.models 0 in
  (* Four socket passes, so the p99s have ten samples beyond them. *)
  let replies =
    match
      List.concat_map
        (fun k ->
          Serve.run_pass errs s.Serve.refs s.Serve.conns
            (if k = 0 then reqs else Serve.pass_requests ~seed s.Serve.models k))
        [ 0; 1; 2; 3 ]
    with
    | r -> Serve.close_client s; r
    | exception e -> Serve.kill s.Serve.srv; raise e
  in
  let nrep = float_of_int (List.length replies) in
  let ratio p = float_of_int (List.length (List.filter p replies)) /. nrep in
  let overheads = List.map (fun r -> r.Serve.rtt_ms -. r.Serve.time_ms) replies in
  let server =
    [
      ("server.check_ms_p50", Util.median (List.map (fun r -> r.Serve.time_ms) replies), "ms");
      ("server.overhead_ms_p50", Util.median overheads, "ms");
      ("server.overhead_ms_p99", Util.quantile 0.99 overheads, "ms");
      ("server.rtt_ms_p99", Util.quantile 0.99 (List.map (fun r -> r.Serve.rtt_ms) replies), "ms");
      ("server.warm_ratio", ratio (fun r -> r.Serve.warm), "ratio");
      ("server.reach_reused_ratio", ratio (fun r -> r.Serve.reach_reused), "ratio");
      ( "server.reply_bytes",
        List.fold_left (fun a r -> a +. float_of_int r.Serve.bytes) 0. replies /. nrep,
        "bytes" );
      ("server.decode_ms", Util.median (List.map (fun r -> r.Serve.decode_ms) replies), "ms");
    ]
  in
  let oracle_checked =
    List.length
      (List.filter (fun md -> oracle errs md ~extra:[ Models.extra_spec md ]) s.Serve.models)
  in
  let warmup =
    List.map (fun model -> { Models.model; extra = false; traces = false }) s.Serve.models
  in
  let request t cache (rq : Models.request) =
    let md = rq.Models.model in
    let key = Server.Cache.digest ~source:md.Models.source ~partitioned:false ~static_order:false in
    let entry, _ = span t "server.acquire" (fun () -> Server.Cache.acquire cache ~key) in
    Fun.protect ~finally:(fun () -> Server.Cache.release cache entry) @@ fun () ->
    let c =
      match entry.Server.Cache.compiled with
      | Some c -> c
      | None ->
        let c = compile t md.Models.source in
        entry.Server.Cache.compiled <- Some c;
        c
    in
    let m = c.Smv.Compile.model in
    ignore (call t ~layer:"kripke" ~name:"kripke.reach" m.Kripke.man (fun () -> Kripke.reachable m));
    let extra =
      if rq.Models.extra then
        let text, e = Models.extra_spec md in
        [ ((text, call t ~layer:"smv" ~name:"smv.compile" m.Kripke.man (fun () ->
                Smv.Compile.compile_expr c text)), (text, e)) ]
      else []
    in
    List.iter
      (fun ((_, f), (text, expected)) ->
        check_spec t errs ~what:(md.Models.name ^ ": " ^ text) ~traces:rq.Models.traces
          ~certify:false m f expected)
      (List.combine c.Smv.Compile.specs md.Models.expected @ extra)
  in
  let replay t =
    let cache = Server.Cache.create ~capacity:Serve.pool_size in
    let quiet = tracer ~on:false in
    List.iter (request quiet cache) warmup;
    Array.iteri
      (fun k rq ->
        t.req <- k;
        span t "request" (fun () -> request t cache rq))
      reqs;
    Array.length reqs
  in
  let t, n, overhead, spans = three_replays errs ~dir ~workload:"serve-mixed" ~seed replay in
  {
    Util.attempted = List.length replies + n;
    failed = List.length (List.filter (fun r -> r.Serve.failed) replies);
    metrics = layer_metrics t @ server @ overhead;
    raw = [];
    samples =
      [ ("requests", n); ("socket_replies", List.length replies);
        ("oracle_models", oracle_checked); ("spans", spans) ];
    errors = Util.error_list errs;
  }
