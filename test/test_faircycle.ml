(* Tests for the fair-cycle fixpoint ([Ctl.Fair.eg], the Emerson-Lei
   nested fixpoint of Section 5):

   - fair-state sets against the explicit SCC-based oracle, on random
     Kripke models with random fairness sets and on the counter chain
     that is the Emerson-Lei worst case;
   - the funnel discipline: limits breaches, auto-reorder sweeps and
     mid-sift aborts all fire *inside* the outer fixpoint, and results
     recover to the fault-free ones.  Fault sites swept through fair
     checking are covered by the chaos suite. *)

let prop name ?(count = 200) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* ------------------------------------------------------------------ *)
(* Agreement with the explicit oracle                                  *)

let prop_fair_states_vs_explicit =
  prop "fair states agree with explicit oracle" ~count:200
    (Models.random_model_gen ~nfair:3 ())
    (fun rm ->
      let symbolic = Ctl.Fair.fair_states rm.Models.sym in
      let explicit = Explicit.Ectl.fair_states rm.Models.graph in
      Models.sets_agree rm symbolic explicit)

(* Fair [EG (not all-ones)] on a binary counter, no fairness declared:
   the subgraph is a 2^bits-long chain with no cycle, so every outer
   iteration peels one tail state and the fixpoint is empty. *)
let test_counter_chain_vs_explicit () =
  List.iter
    (fun bits ->
      let m = Models.counter bits in
      let all_ones =
        List.init bits (fun i -> Ctl.atom (Printf.sprintf "b%d" i))
        |> List.fold_left (fun acc a -> Ctl.And (acc, a)) Ctl.True
      in
      let f = Ctl.Check.sat m (Ctl.neg all_ones) in
      let z = Ctl.Fair.eg m f in
      let g, _, mask_of = Explicit.Bridge.of_kripke m in
      let what = Printf.sprintf "counter%d chain" bits in
      Alcotest.(check (array bool))
        (what ^ ": symbolic = explicit")
        (Explicit.Ectl.fair_eg g (mask_of f))
        (mask_of z);
      Alcotest.(check bool) (what ^ ": no fair cycle") true (Bdd.is_zero z))
    [ 6; 8 ]

(* ------------------------------------------------------------------ *)
(* Funnel discipline: limits, auto-reorder, faults inside the fixpoint *)

let test_limits_breach () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  let limits = Bdd.Limits.create ~step_budget:2 () in
  match
    Bdd.Limits.with_attached m.Kripke.man limits (fun () ->
        Ctl.Fair.eg m m.Kripke.space)
  with
  | _ -> Alcotest.fail "expected a step-budget breach inside fair EG"
  | exception Bdd.Limits.Exhausted info ->
    (match info.Bdd.Limits.breach with
    | Bdd.Limits.Step_budget { budget; steps } ->
      Alcotest.(check int) "budget" 2 budget;
      Alcotest.(check bool) "steps exceed budget" true (steps > 2)
    | b -> Alcotest.failf "wrong breach: %a" Bdd.Limits.pp_breach b)

let test_auto_reorder () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  let man = m.Kripke.man in
  let clean = Ctl.Fair.eg m m.Kripke.space in
  let before = (Bdd.stats man).Bdd.reorders in
  Bdd.Reorder.set_auto man (Some 1);
  let sifted =
    Fun.protect
      ~finally:(fun () -> Bdd.Reorder.set_auto man None)
      (fun () ->
        Bdd.Reorder.with_checkpoints man (fun () ->
            Ctl.Fair.eg m m.Kripke.space))
  in
  let after = (Bdd.stats man).Bdd.reorders in
  Alcotest.(check bool) "a sweep fired inside fair EG" true (after > before);
  Alcotest.(check bool) "result unchanged by the sweep" true
    (Bdd.equal clean sifted)

(* A reorder fault fired from an outer-iteration checkpoint (mid-sift
   abort) must surface as the documented exception, leave the manager
   sound, and the retried result must match the clean one. *)
let test_midsift_abort () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  let man = m.Kripke.man in
  let clean = Ctl.Fair.eg m m.Kripke.space in
  Bdd.Reorder.set_auto man (Some 1);
  Bdd.Fault.arm man ~site:Bdd.Fault.Reorder ~after:1;
  (match
     Bdd.Reorder.with_checkpoints man (fun () -> Ctl.Fair.eg m m.Kripke.space)
   with
  | _ -> ()  (* the fault may land after convergence on tiny models *)
  | exception Out_of_memory -> ());
  Bdd.Fault.disarm man;
  Bdd.Reorder.set_auto man None;
  let retried = Ctl.Fair.eg m m.Kripke.space in
  Alcotest.(check bool) "result stable after mid-sift abort" true
    (Bdd.equal clean retried)

let suite =
  [
    prop_fair_states_vs_explicit;
    Alcotest.test_case "counter chains agree with explicit oracle" `Quick
      test_counter_chain_vs_explicit;
    Alcotest.test_case "limits breach inside fair EG" `Quick
      test_limits_breach;
    Alcotest.test_case "auto-reorder fires inside fair EG" `Quick
      test_auto_reorder;
    Alcotest.test_case "mid-sift abort inside fair EG" `Quick
      test_midsift_abort;
  ]
