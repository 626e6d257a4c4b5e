type rings = {
  constr : Bdd.t;
  layers : Bdd.t array;
}

(* Two interchangeable fair-cycle engines: the paper's Emerson-Lei
   nested fixpoint, and the lock-step SCC decomposition of [Lockstep].
   Both compute the same state set, so dispatch never changes verdicts
   or witnesses — only how many symbolic steps the fixpoint costs. *)
type engine =
  | El
  | Lockstep

let engine_name = function
  | El -> "el"
  | Lockstep -> "lockstep"

let engine_of_string = function
  | "el" -> Some El
  | "lockstep" -> Some Lockstep
  | _ -> None

(* Observability counters, process-wide like [Check]'s (and atomic for
   the same reason: several checking domains may increment them at
   once); the nested EU sweeps of the fair fixpoint land in
   [Check.fixpoint_stats], the lock-step rounds in [Lockstep.stats]
   (re-exported here so callers see one record). *)
type fixpoint_stats = {
  outer_iterations : int;
  ring_layers : int;
  lockstep_rounds : int;
  lockstep_sccs_examined : int;
  lockstep_sccs_skipped : int;
}

let outer_iters = Atomic.make 0
let rings_saved = Atomic.make 0

let fixpoint_stats () =
  let ls = Lockstep.stats () in
  { outer_iterations = Atomic.get outer_iters;
    ring_layers = Atomic.get rings_saved;
    lockstep_rounds = ls.Lockstep.rounds;
    lockstep_sccs_examined = ls.Lockstep.sccs_examined;
    lockstep_sccs_skipped = ls.Lockstep.sccs_skipped }

let reset_fixpoint_stats () =
  Atomic.set outer_iters 0;
  Atomic.set rings_saved 0;
  Lockstep.reset_stats ()

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

let eg_el (m : Kripke.t) f =
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

let eg ?(engine = El) m f =
  match engine with
  | El -> eg_el m f
  | Lockstep -> Lockstep.eg m f

(* Ring extraction is engine-independent by design: whichever engine
   converged the fair-EG hull [z], the onion rings are the cheap
   per-constraint [E[f U (z /\ h)]] approximation sequences re-run
   against [z] — so [Counterex.Witness] and [--certify] never see the
   engine, and lock-step witnesses are byte-identical to Emerson-Lei
   ones. *)
let eg_with_rings ?engine (m : Kripke.t) f =
  let bman = m.Kripke.man in
  let z = eg ?engine m f in
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
   managers.  The memo is tagged with the producing engine's name:
   both engines compute the same set, but a stale tag would let a
   warm server silently serve engine A's diagram while reporting
   engine B's stats, so a mismatch recomputes (and retags). *)
let fair_states ?(engine = El) (m : Kripke.t) =
  let tag = engine_name engine in
  match Kripke.fair_memo m with
  | Some (z, t) when String.equal t tag -> z
  | Some _ | None ->
    let z = eg ~engine m m.Kripke.space in
    Kripke.set_fair_memo m (Some (z, tag));
    z

let ex_with ~fair m f = Check.ex m (Bdd.and_ m.Kripke.man f fair)

let eu_with ~fair m f g = Check.eu m f (Bdd.and_ m.Kripke.man g fair)
let ex ?engine m f = ex_with ~fair:(fair_states ?engine m) m f
let eu ?engine m f g = eu_with ~fair:(fair_states ?engine m) m f g

let sat ?engine m formula =
  let fair = fair_states ?engine m in
  Check.sat_with ~ex:(ex_with ~fair) ~eu:(eu_with ~fair) ~eg:(eg ?engine)
    m formula

let holds ?engine m formula =
  Bdd.subset m.Kripke.man m.Kripke.init (sat ?engine m formula)
