(* The per-spec checking engine, extracted from bin/smv_check.ml so
   the one-shot CLI and the check server run the same code — and
   therefore print the same bytes.  See the interface for the two
   behaviour fixes (per-check cancellation, spec-pred rooting) that
   came with the move. *)

let ( let* ) = Result.bind

type verdict = Holds | Fails | Undetermined of string
type report = { verdict : verdict; cert_failed : bool }

type opts = {
  fair : bool;
  traces : bool;
  stats : bool;
  certify : bool;
  partitioned : bool;
  timeout : float option;
  node_limit : int option;
  step_limit : int option;
  retries : int;
  retry_factor : float;
  inject : (Bdd.Fault.site * int) option;
  reorder : [ `None | `Once | `Auto ];
  reorder_threshold : int;
}

let default_opts =
  {
    fair = true;
    traces = true;
    stats = false;
    certify = false;
    partitioned = false;
    timeout = None;
    node_limit = None;
    step_limit = None;
    retries = 0;
    retry_factor = 2.0;
    inject = None;
    reorder = `None;
    reorder_threshold = 4096;
  }

let reorder_modes = [ ("none", `None); ("once", `Once); ("auto", `Auto) ]

(* Messages name the CLI flag and the request key: the same check
   guards both decoders. *)
let validate_opts o =
  let bad flag key what = Error (Printf.sprintf "%s / %S: %s" flag key what) in
  let nonpositive = function Some n -> n <= 0 | None -> false in
  if Option.fold ~none:false ~some:(fun t -> t <= 0.0) o.timeout then
    bad "--timeout" "timeout" "SECS must be positive"
  else if nonpositive o.node_limit then
    bad "--node-limit" "node_limit" "N must be positive"
  else if nonpositive o.step_limit then
    bad "--step-limit" "step_limit" "N must be positive"
  else if o.retries < 0 then bad "--retries" "retries" "N must be >= 0"
  else if o.reorder_threshold <= 0 then
    bad "--reorder-threshold" "reorder_threshold" "N must be positive"
  else if o.retry_factor < 1.0 then
    bad "--retry-budget-factor" "retry_factor" "F must be >= 1.0"
  else Ok ()

type inject = Fault of Bdd.Fault.site * int | Worker of int | Child_crash of int

let parse_inject ?seed s =
  match String.index_opt s ':' with
  | None -> Error "expected SITE:COUNT (e.g. mk:1000, step:3, worker:1)"
  | Some i -> (
    let site = String.sub s 0 i in
    let count = String.sub s (i + 1) (String.length s - i - 1) in
    let* n =
      match (int_of_string_opt count, seed) with
      | Some n, _ when n >= 1 -> Ok n
      | None, Some seed when count = "rand" ->
        (* Seeded so chaos runs are reproducible: same seed, same
           injection point. *)
        let rng = Random.State.make [| seed; 0x1aB2 |] in
        Ok (1 + Random.State.int rng 4096)
      | _ ->
        Error
          ("COUNT must be a positive integer"
          ^ if seed = None then "" else " or 'rand'")
    in
    match site with
    | "worker" -> Ok (Worker n)
    | "child-crash" -> Ok (Child_crash n)
    | _ -> (
      match Bdd.Fault.site_of_string site with
      | Some fs -> Ok (Fault (fs, n))
      | None ->
        Error
          (Printf.sprintf
             "unknown site %S (expected mk, probe, gc, step, reorder, worker \
              or child-crash)"
             site)))

let compile_model ~what load =
  let at pos = Format.asprintf "%a" Smv.Ast.pp_pos pos in
  match load () with
  | compiled -> Ok compiled
  | exception Smv.Lexer.Error (msg, pos) ->
    Error (Printf.sprintf "%s: lexical error at %s: %s" what (at pos) msg)
  | exception Smv.Parser.Error (msg, pos) ->
    Error (Printf.sprintf "%s: syntax error at %s: %s" what (at pos) msg)
  | exception (Smv.Compile.Error (msg, pos) | Smv.Flatten.Error (msg, pos)) ->
    let where = match pos with Some p -> " at " ^ at p | None -> "" in
    Error (Printf.sprintf "%s: error%s: %s" what where msg)

let compile_specs ~what compiled texts =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | text :: rest -> (
      match Smv.Compile.compile_expr compiled text with
      | f -> go ((text, f) :: acc) rest
      | exception
          ( Smv.Lexer.Error (msg, _)
          | Smv.Parser.Error (msg, _)
          | Smv.Compile.Error (msg, _) ) ->
        Error (Printf.sprintf "%s %S: %s" what text msg))
  in
  go [] texts

let mk_limits opts ~cancel =
  Bdd.Limits.create ?timeout:opts.timeout ?node_budget:opts.node_limit
    ?step_budget:opts.step_limit ~cancel ()

let exit_code ~interrupted reports =
  let verdicts = List.map (fun r -> r.verdict) reports in
  let some_cert_failed = List.exists (fun r -> r.cert_failed) reports in
  let some_undetermined =
    List.exists (function Undetermined _ -> true | _ -> false) verdicts
  in
  let some_false = List.exists (( = ) Fails) verdicts in
  if some_cert_failed then 3
  else if interrupted || some_undetermined then 2
  else if some_false then 1
  else 0

(* The paper: a true existential specification gets a witness, a false
   universal one gets a counterexample. *)
let rec existential = function
  | Ctl.EX _ | Ctl.EF _ | Ctl.EG _ | Ctl.EU _ -> true
  | Ctl.Not f -> not (existential f)
  | Ctl.True | Ctl.False | Ctl.Atom _ | Ctl.Pred _ | Ctl.And _ | Ctl.Or _
  | Ctl.Imp _ | Ctl.Iff _ | Ctl.AX _ | Ctl.AF _ | Ctl.AG _ | Ctl.AU _ ->
    false

let describe_breach (info : Bdd.Limits.info) =
  Format.asprintf "%a" Bdd.Limits.pp_breach info.Bdd.Limits.breach

let print_breach_progress ppf (info : Bdd.Limits.info) =
  let p = info.Bdd.Limits.progress in
  Format.fprintf ppf
    "--   progress before the limit: %d fixpoint iterations, %d ring segments%s@."
    p.Bdd.Limits.iterations p.Bdd.Limits.rings
    (match p.Bdd.Limits.witness_prefix with
    | [] -> ""
    | states -> Printf.sprintf ", %d witness states" (List.length states))

(* Build — and, when [emit], print (byte-identical to the pre-recovery
   checker) — the trace for a determined verdict.  A resource breach
   here is reported as a note but keeps the verdict: the answer was
   already computed, only its explanation ran out of budget.
   [fallback] switches the source of the trace to the explicit-state
   bridge (the ladder's last rung); the surrounding text stays the
   same, so downstream tooling parses both alike. *)
let trace_for ppf m ~emit ~holds ~fallback spec =
  let emitf fmt =
    if emit then Format.fprintf ppf fmt else Format.ifprintf ppf fmt
  in
  let show tr =
    emitf "-- as demonstrated by the following execution sequence@.";
    emitf "%a@." (Kripke.Trace.pp m) tr
  in
  let show_fail tr =
    show tr;
    emitf "-- trace length: %d states%s@." (Kripke.Trace.length tr)
      (if Kripke.Trace.is_lasso tr then
         Printf.sprintf " (cycle of length %d)"
           (List.length tr.Kripke.Trace.cycle)
       else "")
  in
  match fallback with
  | Some fb ->
    if holds then begin
      if not (existential spec) then None
      else
        match Robust.Fallback.witness fb spec with
        | Some tr ->
          show tr;
          Some tr
        | None -> None
    end
    else begin
      match Robust.Fallback.counterexample fb spec with
      | Some tr ->
        show_fail tr;
        Some tr
      | None ->
        emitf "-- (no explicit-state trace for this formula shape)@.";
        None
    end
  | None ->
    if holds then begin
      if not (existential spec) then None
      else
        match Counterex.Explain.witness m spec with
        | Some tr ->
          show tr;
          Some tr
        | None -> None
        | exception Counterex.Explain.Cannot_explain _ -> None
        | exception Bdd.Limits.Exhausted info ->
          emitf "-- (witness construction hit a resource limit: %s)@."
            (describe_breach info);
          None
    end
    else begin
      (* Counterexamples always use fair semantics when constraints are
         declared, as SMV does. *)
      match Counterex.Explain.counterexample m spec with
      | Some tr ->
        show_fail tr;
        Some tr
      | None ->
        emitf
          "-- (no initial-state counterexample: the formula fails only under plain semantics)@.";
        None
      | exception Counterex.Explain.Cannot_explain msg ->
        emitf "-- (could not build a linear counterexample: %s)@." msg;
        None
      | exception Bdd.Limits.Exhausted info ->
        emitf "-- (counterexample construction hit a resource limit: %s)@."
          (describe_breach info);
        None
    end

(* What one ladder attempt produced: the verdict, the model it was
   decided on (the degraded rung may swap in a partitioned variant),
   the budget bundle it ran under (trace construction keeps charging
   it), and the explicit bridge when the verdict came from the
   explicit-state rung. *)
type attempt_result = {
  ar_holds : bool;
  ar_model : Kripke.t;
  ar_limits : Bdd.Limits.t;
  ar_fallback : Robust.Fallback.t option;
}

let check_one ppf m ~opts ~cancel ?(debug = false) ~clusters ?prior
    (name, spec) =
  let man = m.Kripke.man in
  (* Monotonic, not calendar, time: the retry pool arithmetic below
     must not jump when NTP steps the clock mid-spec. *)
  let spec_started = Bdd.now_monotonic () in
  let saved_cache_limit = Bdd.cache_limit man in
  let max_attempts = opts.retries + 1 in
  (* Exponential budget backoff: attempt 1 runs under exactly the base
     budgets (the --retries 0 identity); retry k multiplies node/step
     budgets by factor^(k-1) and gives the remaining share of a
     (timeout * attempts)-sized wall-clock pool. *)
  let backoff k = function
    | None -> None
    | Some n ->
      let scaled = float_of_int n *. (opts.retry_factor ** float_of_int (k - 1)) in
      Some (if scaled >= 1e18 then max_int else int_of_float scaled)
  in
  let timeout_for k =
    match opts.timeout with
    | None -> None
    | Some t ->
      if k = 1 then Some t
      else
        let total = t *. float_of_int max_attempts in
        let elapsed = Bdd.now_monotonic () -. spec_started in
        let left = max 1 (max_attempts - k + 1) in
        Some (Float.max 0.05 ((total -. elapsed) /. float_of_int left))
  in
  let limits_for k =
    if k = 1 then mk_limits opts ~cancel
    else
      Bdd.Limits.create ?timeout:(timeout_for k)
        ?node_budget:(backoff k opts.node_limit)
        ?step_budget:(backoff k opts.step_limit) ~cancel ()
  in
  let run_symbolic model limits =
    (* Checkpoints on: the verdict phase runs only rooted fixpoints, so
       a pending auto-reorder may fire between iterations.  Witness and
       certification phases below never enable them. *)
    Bdd.Limits.with_attached model.Kripke.man limits (fun () ->
        Bdd.Reorder.with_checkpoints model.Kripke.man (fun () ->
            if opts.fair then Ctl.Fair.holds model spec
            else Ctl.Check.holds model spec))
  in
  (* The degraded representation, built once per spec: partitioned
     transition relation (from the compiler's clusters) when the model
     is not already partitioned. *)
  let dmodel = ref None in
  let degraded_model () =
    match !dmodel with
    | Some dm -> dm
    | None ->
      let dm =
        if Kripke.partitioned m then m
        else
          match clusters () with
          | [] -> m
          | cs -> ( try Kripke.with_partition m cs with Invalid_argument _ -> m)
      in
      dmodel := Some dm;
      dm
  in
  let attempt_fn ~attempt strategy =
    let limits = limits_for attempt in
    match strategy with
    | Robust.Ladder.Direct | Robust.Ladder.Main_domain ->
      { ar_holds = run_symbolic m limits; ar_model = m;
        ar_limits = limits; ar_fallback = None }
    | Robust.Ladder.Gc_retry ->
      (* Reclaim the breached computation's intermediate nodes and drop
         the op-caches, then re-run plainly under backed-off budgets. *)
      ignore (Bdd.gc man);
      { ar_holds = run_symbolic m limits; ar_model = m;
        ar_limits = limits; ar_fallback = None }
    | Robust.Ladder.Reorder ->
      (* Shrink the tables with a sifting sweep before giving up any
         fidelity.  The sweep runs under this attempt's limits, so a
         deadline aborts it at a swap boundary; a failure inside it
         (including an injected reorder fault) is classified by the
         ladder like any other and climbs to the next rung. *)
      Bdd.Limits.with_attached man limits (fun () -> Bdd.reorder man);
      { ar_holds = run_symbolic m limits; ar_model = m;
        ar_limits = limits; ar_fallback = None }
    | Robust.Ladder.Degraded ->
      (* Trade speed for footprint: tight op-caches plus a partitioned
         relation with early quantification. *)
      let tightened =
        match Bdd.cache_limit man with
        | Some n -> min n 8192
        | None -> 8192
      in
      Bdd.set_cache_limit man (Some tightened);
      let dm = degraded_model () in
      { ar_holds = run_symbolic dm limits; ar_model = dm;
        ar_limits = limits; ar_fallback = None }
    | Robust.Ladder.Explicit_state ->
      (* Abandon the symbolic representation: enumerate the (small)
         state space and decide explicitly.  Deadline and cancellation
         still apply (the enumeration's symbolic steps poll them);
         node/step budgets do not — they measure symbolic work. *)
      let limits =
        Bdd.Limits.create ?timeout:(timeout_for attempt) ~cancel ()
      in
      let fb =
        Bdd.Limits.with_attached man limits (fun () ->
            Robust.Fallback.build m)
      in
      {
        ar_holds = Robust.Fallback.holds fb ~fair:opts.fair spec;
        ar_model = m;
        ar_limits = limits;
        ar_fallback = Some fb;
      }
  in
  (* The spec's embedded Pred state sets live on [man] but are not
     reachable from the model's roots; a ladder gc between attempts
     (or a concurrent request's gc on a warm server) must not sweep
     them out from under the remaining attempts. *)
  let spec_preds =
    let acc = ref [] in
    ignore (Ctl.map_pred (fun b -> acc := b :: !acc; b) spec);
    !acc
  in
  (* Arm the injected fault (chaos testing) for this specification;
     one-shot, and disarmed on every exit path so a fault armed for
     spec k can never leak into spec k+1. *)
  (match opts.inject with
  | Some (site, n) -> Bdd.Fault.arm man ~site ~after:n
  | None -> ());
  Bdd.with_root man (fun () -> spec_preds) @@ fun () ->
  Fun.protect
    ~finally:(fun () ->
      Bdd.Fault.disarm man;
      Bdd.set_cache_limit man saved_cache_limit)
    (fun () ->
      let outcome =
        match
          Robust.Ladder.run ~retries:opts.retries
            ~cancelled:(fun () -> Atomic.get cancel)
            ~fits_explicit:(fun () -> Robust.Fallback.fits m)
            ~live_nodes:(fun () -> Bdd.live_nodes man)
            ?prior attempt_fn
        with
        | r -> r
        | exception Bdd.Limits.Exhausted info ->
          (* Only [Interrupted] breaches reach here (the ladder retries
             the others): report like any breach and stop cleanly. *)
          Format.fprintf ppf "-- specification %s is UNDETERMINED (%s)@."
            name (describe_breach info);
          print_breach_progress ppf info;
          ignore (Bdd.gc man);
          Error (Robust.Ladder.Breach info, [])
        | exception e when not debug ->
          Format.fprintf ppf
            "-- specification %s is UNDETERMINED (internal error: %s)@."
            name (Printexc.to_string e);
          Error
            ( Robust.Ladder.Crashed (Printexc.to_string e),
              [] )
      in
      let print_attempt_log log =
        if opts.stats && List.length log > 1 then
          List.iter
            (fun a ->
              Format.fprintf ppf "--   %a@." Robust.Ladder.pp_attempt a)
            log
      in
      match outcome with
      | Error (failure, log) ->
        (* The ladder is out of rungs (or was never given any): report
           the last failure.  For --retries 0 these prints are exactly
           the pre-recovery checker's. *)
        (match (failure, log) with
        | Robust.Ladder.Breach info, _ :: _ ->
          Format.fprintf ppf "-- specification %s is UNDETERMINED (%s)@."
            name (describe_breach info);
          print_breach_progress ppf info;
          ignore (Bdd.gc man)
        | Robust.Ladder.Oom, _ :: _ ->
          if debug && opts.retries = 0 then raise Out_of_memory;
          Format.fprintf ppf
            "-- specification %s is UNDETERMINED (internal error: %s)@." name
            (Printexc.to_string Out_of_memory)
        | Robust.Ladder.Crashed msg, _ :: _ ->
          Format.fprintf ppf
            "-- specification %s is UNDETERMINED (worker failed: %s)@." name
            msg
        | _, [] ->
          (* the failure was already reported (interrupt / internal
             error paths above) *)
          ());
        print_attempt_log log;
        { verdict = Undetermined (Robust.Ladder.failure_name failure);
          cert_failed = false }
      | Ok (ar, log) ->
        let holds = ar.ar_holds in
        let final =
          match List.rev log with a :: _ -> a | [] -> assert false
        in
        let recovered = final.Robust.Ladder.index > 1 in
        Format.fprintf ppf "-- specification %s is %s%s@." name
          (if holds then "true" else "false")
          (if recovered then
             Printf.sprintf " (recovered: attempt %d via %s)"
               final.Robust.Ladder.index
               (Robust.Ladder.strategy_name final.Robust.Ladder.strategy)
           else "");
        print_attempt_log log;
        let need_cert = opts.certify || recovered in
        let tr =
          if opts.traces || need_cert then begin
            match
              Bdd.Limits.with_attached ar.ar_model.Kripke.man ar.ar_limits
                (fun () ->
                  trace_for ppf ar.ar_model ~emit:opts.traces ~holds
                    ~fallback:ar.ar_fallback spec)
            with
            | tr -> tr
            | exception e when not debug ->
              Format.fprintf ppf "-- (trace construction failed: %s)@."
                (Printexc.to_string e);
              None
          end
          else None
        in
        let cert_failed =
          match tr with
          | Some tr when need_cert -> (
            (* Certification runs uncapped but cancellable: the trace
               is already in hand, only cancellation may stop its
               re-validation. *)
            let climits = Bdd.Limits.create ~cancel () in
            match
              Bdd.Limits.with_attached man climits (fun () ->
                  if holds then Robust.Certify.witness m spec tr
                  else Robust.Certify.counterexample m spec tr)
            with
            | Ok () ->
              Format.fprintf ppf
                "-- certificate: trace independently validated (%d states)@."
                (Kripke.Trace.length tr);
              false
            | Error msg ->
              Format.fprintf ppf "-- CERTIFICATION FAILED: %s@." msg;
              Format.fprintf ppf
                "-- specification %s verdict withdrawn (uncertified trace)@."
                name;
              true
            | exception Bdd.Limits.Exhausted info ->
              Format.fprintf ppf "-- (certification interrupted: %s)@."
                (describe_breach info);
              false
            | exception e when not debug ->
              Format.fprintf ppf "-- (certification could not run: %s)@."
                (Printexc.to_string e);
              false)
          | Some _ | None -> false
        in
        if cert_failed then
          { verdict = Undetermined "certification failed"; cert_failed = true }
        else { verdict = (if holds then Holds else Fails); cert_failed = false })
