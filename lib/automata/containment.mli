(** Language containment between Streett automata, with counterexample
    words (Section 8).

    [L(K_sys) ⊆ L(K_spec)] is decided — for a nondeterministic system
    automaton and a {e deterministic} specification automaton — by
    building the product state-transition system [M(K, K')] and
    checking [¬ E (φ_F ∧ ¬φ_{F'})], where the path formula
    [φ_F ∧ ¬φ_{F'}] expands into a disjunction of restricted-class
    CTL* formulas (one per specification acceptance pair); when the
    check fails, the Section 7 witness machinery yields an infinite
    word accepted by the system but rejected by the specification,
    presented as a lasso. *)

type 'a counterexample = 'a Product.word = {
  word_prefix : 'a list;
  word_cycle : 'a list;  (** never empty *)
  sys_run_prefix : int list;
      (** system-automaton states along the prefix, starting at the
          initial state; one longer than [word_prefix] *)
  sys_run_cycle : int list;
      (** system states along the cycle, aligned with [word_cycle] *)
  spec_pair : int;
      (** index of the specification acceptance pair the run violates *)
}

exception Spec_not_deterministic
(** The reduction requires a deterministic specification (checking
    containment against a nondeterministic ω-automaton is
    PSPACE-hard). *)

val check_preconditions : sys:'a Streett.t -> spec:'a Streett.t -> unit
(** Equal alphabets and deterministic specification (shared with the
    {!Rabin} checker). *)

val search :
  ?man:Bdd.man ->
  sys:'a Streett.t ->
  spec:'a Streett.t ->
  npairs:int ->
  conjuncts:(Product.t -> int -> Ctlstar.Gffg.conjunct list) ->
  unit ->
  (unit, 'a counterexample) result
(** The shared containment loop: build the product, then for each
    disjunct index [0 <= j < npairs] check the restricted-class formula
    [conjuncts prod j] at the product's initial state; the first
    satisfiable one yields a witness, turned into a word.  Used by both
    the Streett checker here and the {!Rabin} checker. *)

val contains :
  ?man:Bdd.man ->
  sys:'a Streett.t ->
  spec:'a Streett.t ->
  unit ->
  (unit, 'a counterexample) result
(** [contains ~sys ~spec] — [Ok ()] when [L(sys) ⊆ L(spec)], otherwise
    a counterexample word.  Both automata are completed internally
    (language-preserving); the specification must be deterministic.
    The alphabets must be equal ([Invalid_argument] otherwise).
    The product model is built on [man] (default: a fresh manager), so
    limits attached to [man] govern every product-model fixpoint and
    witness construction; a breach raises [Bdd.Limits.Exhausted]. *)

val check_counterexample :
  sys:'a Streett.t -> spec:'a Streett.t -> 'a counterexample -> bool
(** Independent validation: the system run is a real run over the word
    and is accepting, and the (unique) specification run over the word
    rejects. *)
