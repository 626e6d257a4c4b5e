(* Resource governance: budgets trip with the right structured breach
   and sane partial progress, cancellation works, and — crucially — a
   breach never corrupts the manager: re-running without limits
   afterwards gives exactly the verdict an undisturbed run gives. *)

let prop name ?(count = 60) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let exhausted_info f =
  match f () with
  | _ -> Alcotest.fail "expected Bdd.Limits.Exhausted"
  | exception Bdd.Limits.Exhausted info -> info

(* ------------------------------------------------------------------ *)
(* Unit tests on the mutex model.                                      *)

let starvation (mx : Models.mutex) =
  Ctl.AG (Ctl.Imp (mx.Models.t1, Ctl.AF mx.Models.c1))

let test_deadline () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  let limits = Bdd.Limits.create ~timeout:1e-6 () in
  (* The budget is a microsecond; by the first poll it has passed. *)
  Unix.sleepf 0.002;
  let info =
    exhausted_info (fun () ->
        Bdd.Limits.with_attached m.Kripke.man limits (fun () ->
            Ctl.Check.holds m (starvation mx)))
  in
  (match info.Bdd.Limits.breach with
  | Bdd.Limits.Deadline { timeout; elapsed } ->
    Alcotest.(check (float 1e-9)) "requested timeout" 1e-6 timeout;
    Alcotest.(check bool) "elapsed past timeout" true (elapsed >= 1e-6)
  | b ->
    Alcotest.failf "wrong breach: %a" Bdd.Limits.pp_breach b);
  Alcotest.(check bool)
    "snapshot has live nodes" true
    (info.Bdd.Limits.stats.Bdd.live_nodes > 0);
  Alcotest.(check bool)
    "some progress recorded" true
    (info.Bdd.Limits.progress.Bdd.Limits.iterations >= 1)

let test_step_budget () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  let limits = Bdd.Limits.create ~step_budget:2 () in
  let info =
    exhausted_info (fun () ->
        Bdd.Limits.with_attached m.Kripke.man limits (fun () ->
            Ctl.Check.holds m (starvation mx)))
  in
  (match info.Bdd.Limits.breach with
  | Bdd.Limits.Step_budget { budget; steps } ->
    Alcotest.(check int) "budget" 2 budget;
    Alcotest.(check bool) "steps exceed budget" true (steps > 2)
  | b -> Alcotest.failf "wrong breach: %a" Bdd.Limits.pp_breach b);
  Alcotest.(check int)
    "progress agrees with the breach"
    (match info.Bdd.Limits.breach with
    | Bdd.Limits.Step_budget { steps; _ } -> steps
    | _ -> assert false)
    info.Bdd.Limits.progress.Bdd.Limits.steps

let test_node_budget () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  let limits = Bdd.Limits.create ~node_budget:1 () in
  let info =
    exhausted_info (fun () ->
        Bdd.Limits.with_attached m.Kripke.man limits (fun () ->
            Ctl.Check.holds m (starvation mx)))
  in
  match info.Bdd.Limits.breach with
  | Bdd.Limits.Node_budget { budget; live } ->
    Alcotest.(check int) "budget" 1 budget;
    Alcotest.(check bool) "live count exceeds it" true (live > 1)
  | b -> Alcotest.failf "wrong breach: %a" Bdd.Limits.pp_breach b

let test_cancel () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  let limits = Bdd.Limits.unlimited () in
  Alcotest.(check bool) "not yet cancelled" false (Bdd.Limits.cancelled limits);
  Bdd.Limits.cancel limits;
  Alcotest.(check bool) "cancelled" true (Bdd.Limits.cancelled limits);
  let info =
    exhausted_info (fun () ->
        Bdd.Limits.with_attached m.Kripke.man limits (fun () ->
            Bdd.Limits.note_witness m.Kripke.man [ [| true |]; [| false |] ];
            Ctl.Check.holds m (starvation mx)))
  in
  (match info.Bdd.Limits.breach with
  | Bdd.Limits.Interrupted -> ()
  | b -> Alcotest.failf "wrong breach: %a" Bdd.Limits.pp_breach b);
  Alcotest.(check int)
    "witness prefix preserved" 2
    (List.length info.Bdd.Limits.progress.Bdd.Limits.witness_prefix)

let test_create_validation () =
  (match Bdd.Limits.create ~timeout:0.0 () with
  | _ -> Alcotest.fail "timeout 0 accepted"
  | exception Invalid_argument _ -> ());
  (match Bdd.Limits.create ~node_budget:0 () with
  | _ -> Alcotest.fail "node budget 0 accepted"
  | exception Invalid_argument _ -> ());
  match Bdd.Limits.create ~step_budget:(-3) () with
  | _ -> Alcotest.fail "negative step budget accepted"
  | exception Invalid_argument _ -> ()

let test_attach_restore () =
  let mx = Models.mutex () in
  let bman = mx.Models.m.Kripke.man in
  let outer = Bdd.Limits.unlimited () in
  let inner = Bdd.Limits.unlimited () in
  let is_attached l =
    match Bdd.Limits.attached bman with Some l' -> l' == l | None -> false
  in
  Bdd.Limits.attach bman outer;
  Bdd.Limits.with_attached bman inner (fun () ->
      Alcotest.(check bool) "inner attached" true (is_attached inner));
  Alcotest.(check bool) "outer restored" true (is_attached outer);
  (* restored across an exception too *)
  (try
     Bdd.Limits.with_attached bman inner (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool)
    "outer restored after raise" true (is_attached outer);
  Bdd.Limits.detach bman;
  Alcotest.(check bool) "detached" true (Bdd.Limits.attached bman = None)

(* ------------------------------------------------------------------ *)
(* One channel reaches every engine: each public governed entry point,
   called with no budget argument inside [with_attached] of a one-step
   bundle, must trip it.  Every case builds a fresh manager, so no memo
   left by an earlier case can spare a fixpoint.                       *)

let governed_entry_points =
  let on_mutex run () =
    let mx = Models.mutex () in
    (mx.Models.m.Kripke.man, fun () -> run mx mx.Models.m)
  in
  let fair_holds engine =
    on_mutex (fun mx m -> ignore (Ctl.Fair.holds ~engine m (starvation mx)))
  in
  (* Automata over {a,b}: accept everything, and "infinitely many a's"
     (a deterministic last-letter tracker); the first is not contained
     in the second. *)
  let ab = [| 'a'; 'b' |] in
  let accept_all =
    Automata.Streett.make ~nstates:1 ~init:0 ~alphabet:ab
      ~delta:[ (0, 0, 0); (0, 1, 0) ] ~accept:[]
  in
  let inf_a =
    Automata.Streett.make ~nstates:2 ~init:0 ~alphabet:ab
      ~delta:[ (0, 0, 1); (0, 1, 0); (1, 0, 1); (1, 1, 0) ]
      ~accept:[ ([], [ 1 ]) ]
  in
  [
    ( "Check.holds",
      on_mutex (fun mx m -> ignore (Ctl.Check.holds m (starvation mx))) );
    ("Fair.holds el", fair_holds Ctl.Fair.El);
    ("Fair.holds lockstep", fair_holds Ctl.Fair.Lockstep);
    ( "Explain.witness",
      on_mutex (fun mx m ->
          ignore (Counterex.Explain.witness m (Ctl.EF mx.Models.c1))) );
    ( "Explain.counterexample",
      on_mutex (fun mx m ->
          ignore (Counterex.Explain.counterexample m (starvation mx))) );
    ( "Certify.witness",
      fun () ->
        let mx = Models.mutex () in
        let m = mx.Models.m in
        (* The opaque [not EG c1] operand makes certification rerun a
           fair fixpoint of its own. *)
        let f =
          Ctl.EF (Ctl.And (mx.Models.c1, Ctl.Not (Ctl.EG mx.Models.c1)))
        in
        let tr = Option.get (Counterex.Explain.witness m f) in
        (m.Kripke.man, fun () -> ignore (Robust.Certify.witness m f tr)) );
    ( "Gffg.holds",
      on_mutex (fun _ m ->
          ignore
            (Ctlstar.Gffg.holds m
               (Ctlstar.E (Ctlstar.gf (Ctlstar.Atom "c1"))))) );
    ( "Containment.contains",
      fun () ->
        let man = Bdd.create () in
        ( man,
          fun () ->
            ignore
              (Automata.Containment.contains ~man ~sys:accept_all ~spec:inf_a
                 ()) ) );
    ("Kripke.reachable", on_mutex (fun _ m -> ignore (Kripke.reachable m)));
  ]

let test_attached_reaches_every_engine () =
  List.iter
    (fun (name, setup) ->
      let man, run = setup () in
      let limits = Bdd.Limits.create ~step_budget:1 () in
      match Bdd.Limits.with_attached man limits run with
      | () -> Alcotest.failf "%s: finished under a one-step budget" name
      | exception Bdd.Limits.Exhausted { Bdd.Limits.breach; _ } -> (
        match breach with
        | Bdd.Limits.Step_budget { budget = 1; _ } -> ()
        | b -> Alcotest.failf "%s: wrong breach: %a" name Bdd.Limits.pp_breach b))
    governed_entry_points

(* ------------------------------------------------------------------ *)
(* Property: a breach never corrupts the manager.                      *)

let with_formula () =
  QCheck2.Gen.pair (Models.random_model_gen ~nfair:2 ()) Models.formula_gen

let prop_breach_preserves_verdict =
  prop "verdict is identical before and after a step-budget breach"
    (with_formula ())
    (fun (rm, f) ->
      let m = rm.Models.sym in
      let before_plain = Ctl.Check.sat m f in
      let before_fair = Ctl.Fair.sat m f in
      (* Trip a budget mid-computation (or finish: tiny formulas may
         need a single iteration; either way the state must be clean
         afterwards). *)
      let limits = Bdd.Limits.create ~step_budget:1 () in
      (try
         ignore
           (Bdd.Limits.with_attached m.Kripke.man limits (fun () ->
                Ctl.Fair.sat m f))
       with Bdd.Limits.Exhausted _ -> ());
      let after_plain = Ctl.Check.sat m f in
      let after_fair = Ctl.Fair.sat m f in
      Bdd.equal before_plain after_plain && Bdd.equal before_fair after_fair)

let prop_generous_limits_change_nothing =
  prop "generous limits leave every verdict unchanged"
    (with_formula ())
    (fun (rm, f) ->
      let m = rm.Models.sym in
      let unlimited = Ctl.Fair.sat m f in
      let limits = Bdd.Limits.create ~timeout:3600.0 ~step_budget:max_int () in
      let governed =
        Bdd.Limits.with_attached m.Kripke.man limits (fun () ->
            Ctl.Fair.sat m f)
      in
      Bdd.equal unlimited governed)

let suite =
  [
    Alcotest.test_case "deadline breach" `Quick test_deadline;
    Alcotest.test_case "step-budget breach" `Quick test_step_budget;
    Alcotest.test_case "node-budget breach" `Quick test_node_budget;
    Alcotest.test_case "cancellation" `Quick test_cancel;
    Alcotest.test_case "create validates budgets" `Quick
      test_create_validation;
    Alcotest.test_case "attach/with_attached restore" `Quick
      test_attach_restore;
    Alcotest.test_case "attached limits reach every engine" `Quick
      test_attached_reaches_every_engine;
    prop_breach_preserves_verdict;
    prop_generous_limits_change_nothing;
  ]
