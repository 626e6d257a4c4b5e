(** CTL model checking under fairness constraints (Section 5).

    The model's [fairness] field lists state sets [H = {h_1, ..., h_n}];
    path quantifiers range over paths along which every [h_k] holds
    infinitely often.  A model with an empty list behaves as if it had
    the single trivial constraint [true], which makes the witness
    machinery uniform (a plain [EG] witness is a fair [EG] witness for
    [H = {true}]). *)

type rings = {
  constr : Bdd.t;  (** the fairness constraint [h] *)
  layers : Bdd.t array;
      (** the saved approximations [Q^h_i] of [E[f U (Z /\ h)]] from the
          final outer iteration, [Q^h_0 = Z /\ h] *)
}
(** The "onion rings" Section 6's witness construction descends. *)

type engine =
  | El  (** the paper's Emerson-Lei nested fixpoint (the default) *)
  | Lockstep
      (** lock-step symbolic SCC decomposition restricted to
          fairness-intersecting SCCs (Chatterjee et al., arXiv
          1804.00206) *)
(** Which fair-cycle algorithm runs the [EG] fixpoint.  The two are
    verdict-identical by construction — they compute the same state
    set, and BDDs are canonical — and witness rings are extracted by
    shared code after either engine converges, so traces and
    certificates are byte-identical too.  Only the symbolic-step cost
    (and the {!fixpoint_stats} counters that expose it) differs. *)

val engine_name : engine -> string
(** ["el"] or ["lockstep"] — the tag stored in [Kripke.fair_memo] and
    accepted by the CLI/server selectors. *)

val engine_of_string : string -> engine option
(** Inverse of {!engine_name}. *)

type fixpoint_stats = {
  outer_iterations : int;
      (** iterations of the fair-[EG] outer greatest fixpoint
          (Emerson-Lei engine) *)
  ring_layers : int;
      (** layers saved by {!eg_with_rings} for witness generation *)
  lockstep_rounds : int;
      (** lock-step image rounds (lock-step engine) *)
  lockstep_sccs_examined : int;
      (** SCCs the lock-step engine isolated and tested for fairness *)
  lockstep_sccs_skipped : int;
      (** regions the lock-step engine dropped for missing a fairness
          constraint *)
}
(** Counters accumulated process-wide since the last
    {!reset_fixpoint_stats}; the nested [EU] sweeps the outer fixpoint
    runs are counted by [Check.fixpoint_stats]. *)

val fixpoint_stats : unit -> fixpoint_stats
(** Snapshot the counters. *)

val reset_fixpoint_stats : unit -> unit
(** Zero the counters. *)

val constraints : Kripke.t -> Bdd.t list
(** The effective fairness constraints: the model's list, or [[true]]
    when it is empty. *)

val eg : ?engine:engine -> Kripke.t -> Bdd.t -> Bdd.t
(** [CheckFairEG] — with [El] (the default) the greatest fixpoint
    [gfp Z. f /\ /\_k EX (E[f U (Z /\ h_k)])], with [Lockstep] the
    equivalent [E[f U hull]] over the lock-step SCC hull.  Outer
    iterations (resp. lock-step rounds) and nested fixpoint iterations
    each charge one step to the limits attached to the model's manager
    (see [Bdd.Limits.with_attached]). *)

val eg_with_rings : ?engine:engine -> Kripke.t -> Bdd.t -> Bdd.t * rings list
(** Fair [EG] together with the ring sequences, one per effective
    constraint.  The rings are extracted by engine-independent code
    from the converged fixpoint ([Check.eu_rings] against [Z /\ h_k]),
    so both engines yield byte-identical rings — and hence witnesses. *)

val fair_states : ?engine:engine -> Kripke.t -> Bdd.t
(** [fair = CheckFairEG true]: states at the start of some fair path.
    Memoised on the model ([Kripke.fair_memo]) together with the
    producing engine's name; a call under the other engine recomputes
    and retags rather than silently reusing the cached diagram. *)

val ex : ?engine:engine -> Kripke.t -> Bdd.t -> Bdd.t
(** [CheckFairEX f = CheckEX (f /\ fair)]. *)

val eu : ?engine:engine -> Kripke.t -> Bdd.t -> Bdd.t -> Bdd.t
(** [CheckFairEU f g = CheckEU f (g /\ fair)]. *)

val sat : ?engine:engine -> Kripke.t -> Syntax.t -> Bdd.t
(** Full CTL over fair paths ([CheckFair]). *)

val holds : ?engine:engine -> Kripke.t -> Syntax.t -> bool
(** Does every initial state satisfy the formula over fair paths? *)
