type rings = {
  constr : Bdd.t;
  layers : Bdd.t array;
}

(* Observability counters, process-wide like [Check]'s (and atomic for
   the same reason: several checking domains may increment them at
   once); the nested EU sweeps of the fair fixpoint land in
   [Check.fixpoint_stats]. *)
type fixpoint_stats = {
  outer_iterations : int;
  ring_layers : int;
  lockstep_rounds : int;
}

let outer_iters = Atomic.make 0
let rings_saved = Atomic.make 0

let fixpoint_stats () =
  { outer_iterations = Atomic.get outer_iters;
    ring_layers = Atomic.get rings_saved;
    lockstep_rounds = 0 }

let reset_fixpoint_stats () =
  Atomic.set outer_iters 0;
  Atomic.set rings_saved 0

let constraints (m : Kripke.t) =
  match m.Kripke.fairness with
  | [] -> [ m.Kripke.space ]
  | hs -> hs

(* One step of the outer greatest fixpoint:
   z |-> f /\ /\_k EX (E[f U (z /\ h_k)]).
   [scratch] roots the fold's running conjunction and [z] across the
   nested EU sweeps, whose reorder checkpoints reclaim unrooted
   diagrams. *)
let eg_step m f hs ~scratch z =
  let bman = m.Kripke.man in
  List.fold_left
    (fun acc h ->
      scratch := [ acc; z ];
      let target = Bdd.and_ bman z h in
      let reach = Check.eu m f target in
      Bdd.and_ bman acc (Check.ex m reach))
    f hs

let eg (m : Kripke.t) f =
  let bman = m.Kripke.man in
  let hs = constraints m in
  let f = Bdd.and_ bman f m.Kripke.space in
  let frontier = ref f in
  let scratch = ref [] in
  Bdd.with_root bman
    (fun () -> (f :: !frontier :: hs) @ !scratch)
    (fun () ->
      let rec go z =
        Atomic.incr outer_iters;
        Bdd.Reorder.checkpoint bman;
        Bdd.Limits.step bman;
        let z' = eg_step m f hs ~scratch z in
        if Bdd.equal z z' then z
        else begin
          frontier := z';
          go z'
        end
      in
      go f)

(* The onion rings are the per-constraint [E[f U (z /\ h)]]
   approximation sequences against the converged fixpoint [z]: the
   final outer iteration's nested sweeps, re-run with their layers
   kept. *)
let eg_with_rings (m : Kripke.t) f =
  let bman = m.Kripke.man in
  let z = eg m f in
  let f = Bdd.and_ bman f m.Kripke.space in
  let saved = ref [ z; f ] in
  Bdd.with_root bman
    (fun () -> !saved)
    (fun () ->
      let ring h =
        let layers = Check.eu_rings m f (Bdd.and_ bman z h) in
        ignore (Atomic.fetch_and_add rings_saved (Array.length layers) : int);
        saved := Array.to_list layers @ !saved;
        { constr = h; layers }
      in
      (z, List.map ring (constraints m)))

(* The fair-states set depends only on (model, fairness), and models
   are checked many formulas at a time, so the fixpoint-over-fixpoints
   is cached on the model itself: [Kripke.with_fairness] resets the
   slot, [Kripke.roots] keeps the cached diagram alive across gc and
   reordering, and [Kripke.clone_into] transfers it to worker
   managers. *)
let fair_states (m : Kripke.t) =
  match Kripke.fair_memo m with
  | Some z -> z
  | None ->
    let z = eg m m.Kripke.space in
    Kripke.set_fair_memo m (Some z);
    z

let ex_with ~fair m f = Check.ex m (Bdd.and_ m.Kripke.man f fair)

let eu_with ~fair m f g = Check.eu m f (Bdd.and_ m.Kripke.man g fair)
let ex m f = ex_with ~fair:(fair_states m) m f
let eu m f g = eu_with ~fair:(fair_states m) m f g

let sat m formula =
  let fair = fair_states m in
  Check.sat_with ~ex:(ex_with ~fair) ~eu:(eu_with ~fair) ~eg m formula

let holds m formula = Bdd.subset m.Kripke.man m.Kripke.init (sat m formula)
