(* smv_check — a command-line symbolic model checker in the style of
   SMV: parse a model, check every SPEC (plus any --spec formulas),
   print verdicts and, for failed universal / satisfied existential
   specifications, an execution trace (Section 6).

   Exit codes: 0 every specification holds; 1 at least one is false
   (and none undetermined); 2 a resource limit tripped, a specification
   was left undetermined, or the run was interrupted; 3 input error,
   internal failure, or a trace that failed certification.

   Recovery: with --retries N a breached / out-of-memory / crashed
   specification is re-attempted up to N times through the
   Robust.Ladder rungs (gc-retry, reorder, degraded caches,
   explicit-state fallback), each attempt under exponentially
   backed-off budgets; with --retries 0 (the default) behaviour —
   output bytes included — is identical to the pre-recovery checker.

   The per-spec checking code itself lives in Server.Engine, shared
   with the --serve request loop so both print the same bytes. *)

module Engine = Server.Engine

let ( let* ) = Result.bind

(* --------------------------------------------------------------- *)
(* SIGINT (one-shot mode): set the shared cancel flag.  Every per-spec
   Limits bundle — sequential or on a worker domain — is created with
   this flag, so one atomic store cancels them all: the next poll point
   inside each running BDD operation raises, the in-flight specs are
   reported UNDETERMINED, queued specs are skipped, and the run exits
   cleanly with code 2.  The recovery ladder checks the same flag
   between attempts, so Ctrl-C also means "no more retries".
   [interrupted] is only ever touched from the main domain (handler +
   aggregation).

   Serve mode deliberately does NOT use this flag: there SIGINT means
   "drain and exit" and each request has a private cancel atomic
   (Server.Daemon installs its own handlers). *)

let interrupted = ref false
let cancel_flag : bool Atomic.t = Atomic.make false

let install_sigint () =
  match
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           interrupted := true;
           Atomic.set cancel_flag true))
  with
  | () -> ()
  | exception (Invalid_argument _ | Sys_error _) ->
    (* no signal support on this platform: run ungoverned *)
    ()

(* The reachability fixpoint runs under the per-spec budgets and the
   SIGINT flag: on a breach the count is reported unknown and the run
   goes on to the specifications. *)
let print_model_stats (opts : Engine.opts) m =
  let man = m.Kripke.man in
  let reachable =
    match
      Bdd.Limits.with_attached man (Engine.mk_limits opts ~cancel:cancel_flag)
        (fun () -> Kripke.reachable m)
    with
    | r -> Printf.sprintf "%.0f reachable" (Kripke.count_states m r)
    | exception Bdd.Limits.Exhausted info ->
      ignore (Bdd.gc man);
      Format.asprintf "reachable count unknown (%a)" Bdd.Limits.pp_breach
        info.Bdd.Limits.breach
  in
  Format.printf "model: %d state bits, %.0f states in the state space, %s@."
    m.Kripke.nbits
    (Kripke.count_states m m.Kripke.space)
    reachable;
  let dead = Kripke.deadlocks m in
  if not (Bdd.is_zero dead) then
    Format.printf
      "warning: %.0f deadlocked states (CTL semantics assumes a total relation)@."
      (Kripke.count_states m dead)

(* The post-run half of --stats: BDD manager counters and fixpoint
   iteration counts accumulated while checking.  [extra] carries the
   per-worker manager snapshots of a parallel run, merged into the main
   manager's counters so --stats reports one totalled view of the whole
   run regardless of --jobs. *)
let print_run_stats ?(extra = []) m =
  let s = List.fold_left Bdd.merge_stats (Bdd.stats m.Kripke.man) extra in
  Format.printf "%a@." Bdd.pp_stats s;
  let c = Ctl.Check.fixpoint_stats () in
  let f = Ctl.Fair.fixpoint_stats () in
  Format.printf
    "fixpoints: %d EU iterations, %d EG iterations, %d ring layers@."
    c.Ctl.Check.eu_iterations c.Ctl.Check.eg_iterations
    c.Ctl.Check.ring_layers;
  Format.printf
    "fair fixpoints: %d outer iterations, %d ring layers saved@."
    f.Ctl.Fair.outer_iterations f.Ctl.Fair.ring_layers

(* Random walk from a random initial state, choosing uniformly at each
   step with symbolic cofactor-weighted sampling — no state
   enumeration, so arbitrarily large models are safe to explore. *)
let print_simulation m ~steps ~seed =
  let rng = Random.State.make [| seed |] in
  let pick set = Kripke.pick_random_state m ~rng set in
  match pick m.Kripke.init with
  | None -> Format.printf "no initial state@."
  | Some st ->
    let rec walk acc st k =
      if k = 0 then List.rev acc
      else
        match pick (Kripke.post m (Kripke.state_to_bdd m st)) with
        | None -> List.rev acc (* deadlock *)
        | Some st' -> walk (st' :: acc) st' (k - 1)
    in
    let tr = Kripke.Trace.finite (walk [ st ] st steps) in
    Format.printf "-- random simulation (%d steps, seed %d)@." steps seed;
    Format.printf "%a@." (Kripke.Trace.pp m) tr

let positive flag what = function
  | Some n when n <= 0 ->
    Error (Printf.sprintf "%s: %s must be positive" flag what)
  | Some _ | None -> Ok ()

(* A one-shot run.  [opts], [jobs] and [crash_worker] arrive
   validated; returns Ok (exit code) or Error message (input error,
   exit 3). *)
let run (opts : Engine.opts) ~jobs ~debug ~crash_worker ~extra_specs
    ~cache_limit ~simulate ~seed file =
  let* () = positive "--cache-limit" "N" cache_limit in
  let* () = positive "--simulate" "STEPS" simulate in
  let* compiled =
    match
      Engine.compile_model ~what:file (fun () -> Smv.load_file file)
    with
    | result -> result
    | exception Sys_error msg -> Error msg
  in
  let m = compiled.Smv.Compile.model in
  (* Dynamic reordering: `auto arms the live-node trigger, consumed at
     the fixpoint checkpoints inside each spec's verdict phase, on top
     of the proximity order every model is compiled with. *)
  (match opts.reorder with
  | `None -> ()
  | `Auto -> Bdd.Reorder.set_auto m.Kripke.man (Some opts.reorder_threshold));
  (match cache_limit with
  | Some _ as limit -> Bdd.set_cache_limit m.Kripke.man limit
  | None -> ());
  if opts.stats then print_model_stats opts m;
  (match simulate with
  | Some steps -> print_simulation m ~steps ~seed
  | None -> ());
  let* extra = Engine.compile_specs ~what:"--spec" compiled extra_specs in
  let specs = compiled.Smv.Compile.specs @ extra in
  let reports, worker_stats =
    if specs = [] then begin
      Format.printf "no specifications to check@.";
      ([], [])
    end
    else if jobs > 1 && List.length specs > 1 then begin
      (* Parallel path: fan the specs out over worker domains.  Each
         task renders its whole report (verdict line, trace) into a
         private buffer; the buffers are replayed on the main domain in
         specification order, so the bytes printed are identical to a
         sequential run's. *)
      let names = Array.of_list (List.map fst specs) in
      let formulas = Array.of_list (List.map snd specs) in
      let f wm spec i =
        (* Worker managers reorder independently: [Kripke.clone_into]
           replicated the coordinator's order and pair grouping, and
           the order-independent [Bdd.transfer] bridges whatever order
           each side later sifts to. *)
        (match opts.reorder with
        | `Auto ->
          if Bdd.Reorder.auto_threshold wm.Kripke.man = None then
            Bdd.Reorder.set_auto wm.Kripke.man (Some opts.reorder_threshold)
        | `None -> ());
        let buf = Buffer.create 512 in
        let ppf = Format.formatter_of_buffer buf in
        let r =
          Engine.check_one ppf wm ~opts ~cancel:cancel_flag ~debug
            (names.(i), spec)
        in
        Format.pp_print_flush ppf ();
        (r, Buffer.contents buf)
      in
      (* Crashed-worker recovery happens here, on the main domain, in
         spec order: the crashed attempt seeds the ladder as attempt 1
         and the re-run climbs from Main_domain.  [overrides] keeps the
         recovered reports for final aggregation. *)
      let overrides : (int, Engine.report) Hashtbl.t = Hashtbl.create 4 in
      let on_result i = function
        | Ok ((_ : Engine.report), out) ->
          (* Bypass std_formatter for the replay: a multi-line string
             printed through %s corrupts Format's column tracking.  All
             Format output ends in @. (flush), so channel-level writes
             stay ordered. *)
          Format.print_flush ();
          print_string out
        | Error Parallel.Specs.Cancelled -> ()
        | Error Parallel.Pool.Worker_crashed
          when opts.retries > 0 && not !interrupted ->
          let prior =
            [
              {
                Robust.Ladder.index = 1;
                strategy = Robust.Ladder.Direct;
                failure =
                  Some (Robust.Ladder.Crashed "worker domain died");
                live_nodes = 0;
                duration = 0.;
              };
            ]
          in
          let buf = Buffer.create 512 in
          let ppf = Format.formatter_of_buffer buf in
          let r =
            Engine.check_one ppf m
              ~opts:{ opts with inject = None }
              ~cancel:cancel_flag ~debug ~prior
              (names.(i), formulas.(i))
          in
          Format.pp_print_flush ppf ();
          Hashtbl.replace overrides i r;
          Format.print_flush ();
          print_string (Buffer.contents buf)
        | Error e when not debug ->
          Format.printf
            "-- specification %s is UNDETERMINED (worker failed: %s)@."
            names.(i) (Printexc.to_string e)
        | Error e -> raise e
      in
      let results, worker_stats =
        Parallel.Specs.map ~jobs ~cancel:cancel_flag
          ?chaos_crash:crash_worker ~on_result ~f m formulas
      in
      let reports =
        Array.to_list
          (Array.mapi
             (fun i r ->
               match Hashtbl.find_opt overrides i with
               | Some rr -> Some rr
               | None -> (
                 match r with
                 | Ok (rr, _) -> Some rr
                 | Error Parallel.Specs.Cancelled -> None
                 | Error e ->
                   Some
                     {
                       Engine.verdict =
                         Engine.Undetermined (Printexc.to_string e);
                       cert_failed = false;
                     }))
             results)
        |> List.filter_map Fun.id
      in
      (reports, worker_stats)
    end
    else
      (* Stop early on SIGINT; otherwise check every spec even after
         failures and breaches (per-spec isolation). *)
      ( List.filter_map
          (fun spec ->
            if !interrupted then None
            else
              Some
                (Engine.check_one Format.std_formatter m ~opts
                   ~cancel:cancel_flag ~debug spec))
          specs,
        [] )
  in
  if !interrupted then begin
    Format.printf "-- interrupted; statistics so far:@.";
    print_run_stats ~extra:worker_stats m
  end
  else if opts.stats then print_run_stats ~extra:worker_stats m;
  Ok (Engine.exit_code ~interrupted:!interrupted reports)

open Cmdliner

(* [string], not [file]: a missing path must flow through our own
   error reporting (exit 3), not cmdliner's argument-parse exit.
   Optional because --serve runs without a model argument. *)
let file_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"MODEL.smv"
        ~doc:"SMV model to check (required except with $(b,--serve)).")

let spec_arg =
  Arg.(
    value & opt_all string []
    & info [ "s"; "spec" ] ~docv:"FORMULA"
        ~doc:"Additional CTL specification to check (repeatable).")

let no_fair_arg =
  Arg.(
    value & flag
    & info [ "no-fairness" ]
        ~doc:
          "Ignore FAIRNESS constraints when deciding specifications \
           (counterexample generation still respects them).")

let no_trace_arg =
  Arg.(
    value & flag
    & info [ "q"; "no-trace" ] ~doc:"Do not print counterexample traces.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print model statistics (state counts, deadlocks) before \
           checking, and BDD-manager counters (cache hits/misses, peak \
           node count) plus fixpoint iteration counts afterwards.  \
           With --retries, also the per-spec attempt log.")

let cache_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-limit" ] ~docv:"N"
        ~doc:
          "Bound every BDD operation cache to N entries; a cache that \
           grows past the bound is dropped and rebuilt (results are \
           unchanged, memory is bounded).")

let simulate_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "simulate" ] ~docv:"STEPS"
        ~doc:"Print a random execution of the given length before checking.")

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N"
        ~doc:"Random seed for --simulate and --inject SITE:rand.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) Engine.default_opts.timeout
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget per specification; a spec that exceeds it \
           is reported UNDETERMINED and checking continues with the \
           next one.")

let node_limit_arg =
  Arg.(
    value
    & opt (some int) Engine.default_opts.node_limit
    & info [ "node-limit" ] ~docv:"N"
        ~doc:
          "Live BDD-node budget per specification; exceeded budgets \
           report UNDETERMINED like --timeout.")

let step_limit_arg =
  Arg.(
    value
    & opt (some int) Engine.default_opts.step_limit
    & info [ "step-limit" ] ~docv:"N"
        ~doc:
          "Fixpoint-iteration / ring-descent step budget per \
           specification (deterministic, unlike --timeout).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Check specifications on N worker domains in parallel (0 \
           means one per core).  Each worker clones the model into a \
           private BDD manager, so verdicts, traces and exit code are \
           byte-identical to a sequential run.  With $(b,--serve): the \
           number of request-processing workers.")

let retries_arg =
  Arg.(
    value
    & opt int Engine.default_opts.retries
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Re-attempt a breached, out-of-memory or crashed \
           specification up to N times with escalating remediation: \
           garbage collection, a variable-reordering sweep, a degraded \
           (tight-cache) attempt, then an explicit-state fallback when \
           the state space is small enough.  Recovered verdicts are \
           annotated and their traces always certified.  Default 0: no \
           recovery, behaviour identical to earlier versions.")

let retry_factor_arg =
  Arg.(
    value
    & opt float Engine.default_opts.retry_factor
    & info [ "retry-budget-factor" ] ~docv:"F"
        ~doc:
          "Exponential budget backoff for retries: attempt k runs \
           under node/step budgets multiplied by F^(k-1), and the \
           remaining share of a (timeout * attempts) wall-clock pool.")

let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Independently re-validate every emitted witness or \
           counterexample trace against path semantics (transition \
           membership, operand satisfaction, fairness hits on the \
           cycle).  A trace that fails certification withdraws its \
           verdict and the run exits 3.  Always on for recovered \
           (retried) specifications.")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"SITE:COUNT"
        ~doc:
          "Chaos testing: deterministically fail the COUNT-th visit to \
           SITE (mk, probe, gc, step or reorder — raising the same \
           errors real resource exhaustion would) or kill the worker \
           domain that picks up the COUNT-th task (worker, needs \
           --jobs >= 2).  COUNT may be 'rand' (seeded by --seed).  \
           Combine with --retries to exercise the recovery ladder.")

let reorder_arg =
  Arg.(
    value
    & opt (enum Engine.reorder_modes) Engine.default_opts.reorder
    & info [ "reorder" ] ~docv:"MODE"
        ~doc:
          "Dynamic BDD variable reordering.  Every model is compiled \
           with a dependency-proximity static order; $(b,none) \
           (default) keeps it, $(b,auto) re-sifts (Rudell) whenever \
           live nodes grow past --reorder-threshold (the threshold \
           doubles after each sweep).  Output, traces included, is \
           byte-identical under either mode: trace states are picked \
           by bit index, never by variable order.")

let reorder_threshold_arg =
  Arg.(
    value
    & opt int Engine.default_opts.reorder_threshold
    & info [ "reorder-threshold" ] ~docv:"N"
        ~doc:
          "Live-node trigger for --reorder auto: a sifting sweep is \
           scheduled when the manager grows past N live nodes (then \
           past max(2 * live, N) after each sweep).")

let debug_arg =
  Arg.(
    value & flag
    & info [ "debug" ]
        ~doc:
          "Developer mode: record exception backtraces and let \
           unexpected exceptions crash with a full trace instead of \
           being condensed to one-line diagnostics.")

let serve_arg =
  Arg.(
    value & flag
    & info [ "serve" ]
        ~doc:
          "Run as a check server: accept framed JSON check requests on \
           stdin/stdout (or $(b,--socket)) and keep compiled models \
           warm between requests — hot operation caches, sifted \
           variable orders and memoised reachable sets are reused when \
           only the specification changes.  Each request runs under \
           its own budgets and cancellation flag; SIGINT drains \
           in-flight requests and exits.")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "With $(b,--serve): listen on a Unix-domain socket at PATH \
           (accepting any number of concurrent client connections) \
           instead of serving a single session on stdin/stdout.")

let cache_models_arg =
  Arg.(
    value & opt int 8
    & info [ "cache-models" ] ~docv:"N"
        ~doc:
          "With $(b,--serve): keep up to N compiled models warm; the \
           least recently used idle model is evicted beyond that.")

let max_pending_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-pending" ] ~docv:"N"
        ~doc:
          "With $(b,--serve): admit at most N queued (not yet running) \
           checks; past the bound a check is refused immediately with \
           a structured 'overloaded' reply carrying a retry_after_ms \
           hint.  Default: unbounded.")

let max_inflight_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:
          "With $(b,--serve): cap one connection at N concurrent \
           checks (queued or running); further checks on that \
           connection are refused with an 'overloaded' reply.  \
           Default: uncapped.")

let default_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "default-timeout" ] ~docv:"SECONDS"
        ~doc:
          "With $(b,--serve): apply this timeout to requests that name \
           none.  A request's own timeout always wins (subject to \
           $(b,--max-timeout)).")

let default_node_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "default-node-limit" ] ~docv:"N"
        ~doc:
          "With $(b,--serve): apply this live-node budget to requests \
           that name none.  A request's own node_limit always wins.")

let max_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-timeout" ] ~docv:"SECONDS"
        ~doc:
          "With $(b,--serve): clamp every request's timeout — its own \
           or the default — to this ceiling, so no single request can \
           hold a worker forever.")

let mem_high_water_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "mem-high-water" ] ~docv:"NODES"
        ~doc:
          "With $(b,--serve): arm the memory watchdog.  When the warm \
           pool's total live BDD nodes exceed NODES, the server evicts \
           idle models, and if that is not enough refuses checks of \
           models that are not already warm (warm models, pings and \
           status probes are still served).  Default: off.")

let supervise_arg =
  Arg.(
    value & flag
    & info [ "supervise" ]
        ~doc:
          "With $(b,--serve --socket): run the serve loop as a \
           supervised child process.  The parent binds the socket \
           once, holds the listening descriptor across restarts (so \
           clients connecting during a restart queue instead of being \
           refused), and restarts a crashed child with exponential \
           backoff and jitter; a crash loop (5 crashes within 30s by \
           default) trips a circuit breaker and exits with a report.  \
           Pairs with $(b,--state-dir), which lets the replacement \
           child rehydrate the crashed child's warm state.")

let state_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:
          "With $(b,--serve): persist warm-model snapshots under DIR.  \
           Idle compiled models are snapshotted (checksummed, written \
           atomically) on the server's low-pressure watchdog ticks and \
           on graceful shutdown, and rehydrated at startup, so a \
           restarted server answers its first checks warm instead of \
           recompiling; corrupt or stale snapshot files are \
           quarantined (renamed $(i,*.quarantined)) and counted, never \
           fatal.  Default: off.")

let status_arg =
  Arg.(
    value & flag
    & info [ "status" ]
        ~doc:
          "Probe a running server: connect to $(b,--socket) PATH, send \
           one status request, print the JSON reply (uptime, queue \
           depth, shed and watchdog counters, per-model cache \
           occupancy, worker state) and exit.")

open Term.Syntax

(* --inject, parsed once: the check-scoped sites become
   [Engine.opts.inject], [worker] is a one-shot --jobs fault and
   [child-crash] a --serve one. *)
let inject_term =
  let+ inject = inject_arg and+ seed = seed_arg in
  match inject with
  | None -> Ok None
  | Some s ->
    Engine.parse_inject ~seed s
    |> Result.map Option.some
    |> Result.map_error (( ^ ) "--inject: ")

let jobs_term =
  let+ jobs = jobs_arg in
  if jobs < 0 then Error "--jobs: N must be >= 0 (0 means all cores)"
  else Ok (if jobs = 0 then Parallel.default_jobs () else jobs)

(* The per-check flags but --inject, decoded into the engine's option
   record and validated by the same check as a server request's
   options.  --inject is decoded once by [inject_term], which also
   reads the one-shot --seed; [main] sets the [inject] field. *)
let opts_term =
  let+ no_fair = no_fair_arg
  and+ no_trace = no_trace_arg
  and+ stats = stats_arg
  and+ certify = certify_arg
  and+ timeout = timeout_arg
  and+ node_limit = node_limit_arg
  and+ step_limit = step_limit_arg
  and+ retries = retries_arg
  and+ retry_factor = retry_factor_arg
  and+ reorder = reorder_arg
  and+ reorder_threshold = reorder_threshold_arg in
  let opts =
    {
      Engine.fair = not no_fair;
      traces = not no_trace;
      stats;
      certify;
      timeout;
      node_limit;
      step_limit;
      retries;
      retry_factor;
      inject = None;
      reorder;
      reorder_threshold;
    }
  in
  let* () = Engine.validate_opts opts in
  Ok opts

let daemon_term =
  let+ socket = socket_arg
  and+ jobs = jobs_term
  and+ capacity = cache_models_arg
  and+ debug = debug_arg
  and+ max_pending = max_pending_arg
  and+ max_inflight = max_inflight_arg
  and+ default_timeout = default_timeout_arg
  and+ default_node_limit = default_node_limit_arg
  and+ max_timeout = max_timeout_arg
  and+ mem_high_water = mem_high_water_arg
  and+ state_dir = state_dir_arg
  and+ inject = inject_term in
  let* jobs = jobs in
  let* inject = inject in
  Ok
    {
      Server.Daemon.socket;
      jobs;
      capacity;
      debug;
      max_pending;
      max_inflight;
      default_timeout;
      default_node_limit;
      max_timeout;
      mem_high_water;
      state_dir;
      crash_after =
        (match inject with Some (Engine.Child_crash n) -> Some n | _ -> None);
      restarts = 0;
    }

(* The flags only a one-shot run reads. *)
let one_shot_term =
  let+ extra_specs = spec_arg
  and+ cache_limit = cache_limit_arg
  and+ simulate = simulate_arg
  and+ seed = seed_arg in
  (extra_specs, cache_limit, simulate, seed)

let main =
  let+ opts, per_check_flags = Term.with_used_args opts_term
  and+ dcfg = daemon_term
  and+ jobs = jobs_term
  and+ inject = inject_term
  and+ _, inject_flags = Term.with_used_args inject_arg
  and+ debug = debug_arg
  and+ socket = socket_arg
  and+ file = file_arg
  and+ (extra_specs, cache_limit, simulate, seed), one_shot_flags =
    Term.with_used_args one_shot_term
  and+ serve = serve_arg
  and+ supervise = supervise_arg
  and+ status = status_arg in
  let input_error msg =
    Format.eprintf "%s@." msg;
    3
  in
  Printexc.record_backtrace debug;
  if status then begin
    match socket with
    | Some path -> Server.Daemon.status_client ~socket:path
    | None -> input_error "smv_check --status: --socket PATH is required"
  end
  else if serve then begin
    if file <> None then
      Format.eprintf "warning: MODEL.smv argument is ignored with --serve@.";
    (* Server flags only: per-check options travel in each request, and
       a flag the server would not apply is refused, not dropped. *)
    let checked =
      let* dcfg = dcfg in
      let* opts = opts in
      let* inject = inject in
      let per_check =
        (if opts <> Engine.default_opts then per_check_flags else [])
        @ (match inject with Some (Engine.Fault _) -> inject_flags | _ -> [])
      in
      match inject with
      | Some (Engine.Worker _) ->
        Error "--inject worker:N applies to one-shot --jobs runs, not --serve"
      | _ when per_check <> [] ->
        Error
          (Printf.sprintf
             "--serve: per-check flags belong in each request's options: %s"
             (String.concat " " per_check))
      | _ when one_shot_flags <> [] ->
        Error
          (Printf.sprintf "--serve: flags of one-shot runs do not apply: %s"
             (String.concat " " one_shot_flags))
      | _ -> Ok dcfg
    in
    match checked with
    | Error msg -> input_error msg
    | Ok dcfg ->
      if supervise then Server.Supervise.run dcfg else Server.Daemon.serve dcfg
  end
  else
    match file with
    | None -> input_error "smv_check: required MODEL.smv argument is missing"
    | Some f -> (
      install_sigint ();
      match
        let* opts = opts in
        let* jobs = jobs in
        let* inject = inject in
        let* crash_worker =
          match inject with
          | Some (Engine.Worker _) when jobs < 2 ->
            Error "--inject worker:N requires a parallel run (--jobs >= 2)"
          | Some (Engine.Worker n) -> Ok (Some n)
          | Some (Engine.Child_crash _) ->
            Error "--inject child-crash:K requires --serve"
          | Some (Engine.Fault _) | None -> Ok None
        in
        let opts =
          match inject with
          | Some (Engine.Fault (site, n)) ->
            { opts with Engine.inject = Some (site, n) }
          | _ -> opts
        in
        run opts ~jobs ~debug ~crash_worker ~extra_specs ~cache_limit ~simulate
          ~seed f
      with
      | Ok code -> code
      | Error msg -> input_error msg
      | exception e when not debug ->
        (* Crash guard: anything unexpected outside the per-spec
           isolation becomes a one-line diagnostic. *)
        Format.eprintf "smv_check: internal error on %s: %s@." f
          (Printexc.to_string e);
        3)

let cmd =
  let doc = "symbolic CTL model checker with counterexample generation" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Checks every SPEC of an SMV model with the BDD-based symbolic \
         algorithm of Clarke, Grumberg, McMillan and Zhao, honouring \
         FAIRNESS constraints, and prints a counterexample execution \
         trace (a finite path, or a path followed by a repeating cycle) \
         for every failed specification.";
      `P
        "Resource governance: $(b,--timeout), $(b,--node-limit) and \
         $(b,--step-limit) bound each specification separately; a spec \
         that exceeds a budget is reported UNDETERMINED and the \
         remaining specs are still checked.  SIGINT finishes the \
         current BDD operation, prints statistics so far, and exits \
         cleanly.";
      `P
        "Recovery: $(b,--retries N) climbs a remediation ladder instead \
         of giving up — garbage collection and backed-off budgets \
         first, then a sifting sweep, then tight operation caches, \
         finally an explicit-state re-check when the state space is \
         small.  Recovered verdicts are annotated on the verdict line and \
         their traces are always certified ($(b,--certify)).  \
         $(b,--inject) plants deterministic faults to exercise every \
         rung in CI.";
      `P
        "Variable order: every model gets a dependency-aware static \
         order at compile time; $(b,--reorder auto) keeps sifting as \
         the tables grow (Rudell's algorithm, current/next bit pairs \
         moved as blocks).  Orders only change sizes and times — \
         never verdicts, traces or exit codes.";
      `P
        "Parallelism: $(b,--jobs N) checks specifications on N worker \
         domains, each with a private clone of the model in its own \
         BDD manager (shared-nothing, no locks on the BDD hot paths).  \
         Output order, traces and the exit code are byte-identical to \
         a sequential run.  A crashed worker is respawned, and with \
         $(b,--retries) its specification is re-checked on the main \
         domain.";
      `P
        "Server mode: $(b,--serve) turns the checker into a long-lived \
         daemon speaking length-prefixed JSON frames on stdin/stdout \
         or a Unix socket ($(b,--socket)).  Compiled models stay warm \
         in an LRU pool ($(b,--cache-models)), so repeat checks skip \
         compilation, BDD construction and the reachability fixpoint.  \
         Every reply carries the verdicts, the one-shot CLI's exact \
         output text, and per-request statistics; a request that trips \
         a budget or an injected fault is answered UNDETERMINED while \
         the server and its other requests continue untouched.";
      `P
        "Server overload protection (all off by default): \
         $(b,--max-pending) and $(b,--max-inflight) shed excess checks \
         immediately with structured 'overloaded' replies instead of \
         queueing without bound; $(b,--default-timeout), \
         $(b,--default-node-limit) and $(b,--max-timeout) impose \
         server-side budgets on unbudgeted requests; \
         $(b,--mem-high-water) arms a memory watchdog that sheds \
         cache warmth under pressure (evict idle models, then refuse \
         cold models) and recovers when pressure clears.  \
         $(b,--status) probes a running server's health from the \
         command line.";
      `P
        "Crash-only operation: $(b,--supervise) forks the serve loop \
         under a restarting parent that holds the listening socket \
         across crashes, and $(b,--state-dir) persists checksummed \
         warm-model snapshots so a restarted server rehydrates its \
         pool instead of recompiling — together they make a SIGKILL \
         at any moment cost one restart latency, not the accumulated \
         warmth.";
      `S Manpage.s_exit_status;
      `P "0 — every specification holds.";
      `P "1 — at least one specification is false (none undetermined).";
      `P
        "2 — a resource limit tripped, some verdict is undetermined, or \
         the run was interrupted.";
      `P
        "3 — input error (unreadable or invalid model, bad flags), \
         internal failure, or an emitted trace failed $(b,--certify) \
         validation.";
      `S Manpage.s_examples;
      `P "smv_check examples/models/mutex.smv";
      `P "smv_check --spec 'AG (tr1 -> AF ta1)' arbiter.smv";
      `P "smv_check --timeout 5 --node-limit 2000000 big_model.smv";
      `P "smv_check --step-limit 100 --retries 2 --certify counter.smv";
      `P "smv_check --inject mk:5000 --retries 1 --stats model.smv";
      `P "smv_check --serve --socket /tmp/smv.sock --jobs 4";
      `P
        "smv_check --serve --socket /tmp/smv.sock --max-pending 32 \
         --max-timeout 30 --mem-high-water 5000000";
      `P
        "smv_check --serve --socket /tmp/smv.sock --supervise \
         --state-dir /var/lib/smv_check";
      `P "smv_check --status --socket /tmp/smv.sock";
    ]
  in
  Cmd.v
    (Cmd.info "smv_check" ~version:"1.0.0" ~doc ~man)
    main

(* A malformed or unknown flag is an input error like any other: exit
   3, not cmdliner's own usage-error code. *)
let () =
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> 0
    | Error (`Parse | `Term) -> 3
    | Error `Exn -> Cmd.Exit.internal_error)
