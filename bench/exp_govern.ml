(* E10 — resource-governance overhead.

   The limits poll is one counter decrement per op-cache probe plus a
   full budget check (flag, live-node count, step count, wall clock)
   every 4096 probes, and one explicit check per fixpoint iteration.
   This experiment measures the end-to-end cost on the E7 fair-EG
   workloads: identical runs governed by generous (never-tripping)
   budgets vs ungoverned, reported as a percentage.  Target: < 2%. *)

let workload ~bits ~k =
  let base = Workloads.ring bits in
  let constraints =
    List.init k (fun i ->
        Ctl.Check.sat base (Ctl.atom (Printf.sprintf "c%d" i)))
  in
  Kripke.with_fairness base constraints

(* Every run is COLD — a fresh manager with empty op-caches — so the
   measurement reflects real verification work rather than a cache-hit
   microbenchmark (where the per-iteration clock reads would be
   artificially magnified).  A single cold run lasts tens of µs, far
   too short for one-shot timing on a shared machine (per-sample noise
   is easily ±10%), so instead of chasing a clean sample we take many:
   each round builds two fresh models and times an ungoverned and a
   governed run back to back.  The per-round ratio cancels slow drift
   (system load, frequency scaling); the interquartile mean over
   hundreds of rounds cuts the remaining noise by ~sqrt(n), which is
   what it takes to resolve a sub-1%% effect. *)
let iq_mean xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let lo = n / 4 and hi = n - (n / 4) in
  let sum = ref 0.0 in
  for i = lo to hi - 1 do
    sum := !sum +. a.(i)
  done;
  !sum /. float_of_int (hi - lo)

let measure ~bits ~k ~rounds =
  let sample governed =
    let m = workload ~bits ~k in
    (* Start every timed region from a clean GC state; otherwise major
       collections lock onto the alternation period and charge their
       pauses to one variant systematically. *)
    Gc.full_major ();
    let _, s =
      Harness.time_once (fun () ->
          if governed then begin
            (* Generous budgets: every poll runs its full check,
               nothing trips. *)
            let limits =
              Bdd.Limits.create ~timeout:3600.0 ~node_budget:max_int
                ~step_budget:max_int ()
            in
            ignore
              (Bdd.Limits.with_attached m.Kripke.man limits (fun () ->
                   Ctl.Fair.eg m m.Kripke.space))
          end
          else ignore (Ctl.Fair.eg m m.Kripke.space))
    in
    s *. 1e9
  in
  (* One discarded warmup pair grows the OCaml heap to working size;
     without it the first variant measured pays that cost alone. *)
  ignore (sample false);
  ignore (sample true);
  let pairs =
    List.init rounds (fun _ ->
        let u = sample false in
        let g = sample true in
        (u, g))
  in
  let ungoverned = iq_mean (List.map fst pairs) in
  let governed = iq_mean (List.map snd pairs) in
  let ratio = iq_mean (List.map (fun (u, g) -> g /. u) pairs) in
  (ungoverned, governed, ratio)

let run ~full =
  let cases =
    if full then [ (16, 4, 120); (24, 8, 60); (32, 8, 60) ]
    else [ (16, 4, 60); (24, 8, 30) ]
  in
  let rows =
    List.map
      (fun (bits, k, rounds) ->
        let ungoverned, governed, ratio = measure ~bits ~k ~rounds in
        let overhead = 100.0 *. (ratio -. 1.0) in
        Harness.emit_json ~experiment:"E10"
          [
            ("workload", Harness.String (Printf.sprintf "ring%d-f%d" bits k));
            ("ungoverned_ns", Harness.Float ungoverned);
            ("governed_ns", Harness.Float governed);
            ("overhead_pct", Harness.Float overhead);
          ];
        [
          Printf.sprintf "ring-%d, %d constraints" bits k;
          Harness.ns_string ungoverned;
          Harness.ns_string governed;
          Printf.sprintf "%+.1f%%" overhead;
        ])
      cases
  in
  Harness.print_table
    ~title:"E10: limits poll-point overhead on fair EG (target < 2%)"
    ~header:[ "workload"; "ungoverned"; "governed"; "overhead" ]
    rows;
  Harness.note
    "Governed runs attach never-tripping wall-clock/node/step budgets, so";
  Harness.note
    "every poll point executes its full check; the delta is pure";
  Harness.note "governance overhead (sampling noise can make it negative)."

let bechamel =
  let m = lazy (workload ~bits:6 ~k:2) in
  Bechamel.Test.make ~name:"e10-governed-fair-eg"
    (Bechamel.Staged.stage (fun () ->
         let m = Lazy.force m in
         let limits = Bdd.Limits.create ~timeout:3600.0 () in
         Bdd.Limits.with_attached m.Kripke.man limits (fun () ->
             Ctl.Fair.eg m m.Kripke.space)))
