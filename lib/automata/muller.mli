(** Muller ω-automata — with Rabin and Büchi, part of the paper's
    Section 8 closing list of acceptance types handled "in essentially
    the same way".

    A Muller condition is a family [F] of state sets: a run [r] is
    accepting when [inf(r)] is {e exactly} one of the sets.  As a path
    formula, "[inf(r) = S]" is
    [(/\_{s∈S} GF s) /\ FG (\/_{s∈S} s)] (every [S]-state recurs, and
    eventually the run never leaves [S]) — a Section 7 class formula —
    so [φ_F] is a disjunction of class formulas.

    The complement needed for the specification side,
    [¬φ_{F'} = \/_{T ∉ F'} "inf = T"], ranges over all state subsets
    not in the family; the checker enumerates them, which is
    exponential in the {e specification} automaton's size (the check is
    guarded; Muller specifications are typically tiny). *)

type 'a t = private {
  automaton : 'a Streett.t;
      (** underlying structure; its [accept] field is unused *)
  family : int list list;  (** the accepting infinity sets, sorted *)
}

val make :
  nstates:int ->
  init:int ->
  alphabet:'a array ->
  delta:(int * int * int) list ->
  family:int list list ->
  'a t

val is_deterministic : 'a t -> bool
val is_complete : 'a t -> bool

val complete : 'a t -> 'a t
(** Language-preserving completion: sink runs have [inf = {sink}],
    which is never in the (sink-free) family. *)

val run_inf_accepts : 'a t -> int list -> bool
val accepts_lasso_det : 'a t -> prefix:int list -> cycle:int list -> bool

exception Spec_too_large of int
(** Raised by {!contains} when the specification automaton has more
    states than the subset-enumeration bound (16). *)

val contains :
  sys:'a t ->
  spec:'a t ->
  unit ->
  (unit, 'a Containment.counterexample) result
(** [L(sys) ⊆ L(spec)] for a nondeterministic system and a
    {e deterministic} specification Muller automaton. *)

val check_counterexample :
  sys:'a t -> spec:'a t -> 'a Containment.counterexample -> bool
