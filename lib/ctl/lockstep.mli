(** Lock-step symbolic fair-cycle detection (Chatterjee et al., arXiv
    1804.00206): fair [EG] via symbolic SCC decomposition restricted to
    fairness-constraint-intersecting SCCs, an asymptotically cheaper
    alternative to the Emerson-Lei nested fixpoint.  Library-internal:
    callers select it through [Fair.engine]. *)

type stats = {
  rounds : int;
      (** lock-step image rounds (forward+backward pairs and trailing
          completion sweeps) *)
  sccs_examined : int;  (** SCCs isolated and tested for fairness *)
  sccs_skipped : int;
      (** regions dropped because they miss some fairness constraint *)
}

val stats : unit -> stats
(** Snapshot the process-wide counters. *)

val reset_stats : unit -> unit
(** Zero the counters. *)

val eg : Kripke.t -> Bdd.t -> Bdd.t
(** Fair [EG f] as [E[f U hull]] where [hull] is the union of the
    nontrivial SCCs of the [f]-subgraph intersecting every fairness
    constraint.  Returns the same set — hence, BDDs being canonical,
    the same diagram — as [Fair.eg]'s Emerson-Lei fixpoint.  Each
    lock-step round polls [Bdd.Reorder.checkpoint] and charges one
    step to the attached limits, the same funnel discipline as the
    classical engine. *)
