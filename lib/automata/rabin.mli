(** Rabin ω-automata and language containment — the paper's closing
    remark of Section 8: "Counterexamples for the language inclusion
    problems of Büchi, Muller, Rabin, and L automata can be found in
    essentially the same way."

    A Rabin automaton shares the structure of a {!Streett.t}; the
    acceptance condition is the dual: a run [r] is accepting when for
    {e some} pair [(E_i, F_i)], [inf(r) ∩ E_i = ∅] and
    [inf(r) ∩ F_i ≠ ∅].  As a path formula:
    [\/_i (FG ¬E_i /\ GF F_i)] — so the containment formula
    [E (φ_F /\ ¬φ_{F'})] again expands into a disjunction of the
    Section 7 class formulas, one per (system pair, spec pair). *)

type 'a t = private {
  automaton : 'a Streett.t;
      (** the underlying structure; its [accept] field is read with
          Rabin semantics *)
}

val make :
  nstates:int ->
  init:int ->
  alphabet:'a array ->
  delta:(int * int * int) list ->
  accept:(int list * int list) list ->
  'a t
(** Pairs are [(E_i, F_i)]: avoid [E_i] from some point on, visit
    [F_i] infinitely often. *)

val is_deterministic : 'a t -> bool
val is_complete : 'a t -> bool

val complete : 'a t -> 'a t
(** Language-preserving completion (the fresh sink joins every [E_i],
    so runs through it are rejected; an automaton with an empty pair
    list rejects everything and needs no adjustment). *)

val run_inf_accepts : 'a t -> int list -> bool
(** Does a run with this infinitely-repeated state set accept? *)

val accepts_lasso_det : 'a t -> prefix:int list -> cycle:int list -> bool
(** For deterministic complete automata (letters as alphabet
    indices). *)

val contains :
  sys:'a t ->
  spec:'a t ->
  unit ->
  (unit, 'a Containment.counterexample) result
(** [L(sys) ⊆ L(spec)] for a nondeterministic system and a
    {e deterministic} specification; [Error] carries a separating lasso
    word.  Raises {!Containment.Spec_not_deterministic} /
    [Invalid_argument] like the Streett version. *)

val check_counterexample :
  sys:'a t -> spec:'a t -> 'a Containment.counterexample -> bool
(** Independent validation under Rabin acceptance semantics. *)
