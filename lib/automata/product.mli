(** The product state-transition system [M(K, K')] of Section 8 and
    counterexample-word extraction, shared by the {!Containment}
    checkers for the different acceptance types (Streett, Rabin). *)

type 'a word = {
  word_prefix : 'a list;
  word_cycle : 'a list;  (** never empty *)
  sys_run_prefix : int list;
      (** system-automaton states along the prefix, starting at the
          initial state; one state per prefix letter *)
  sys_run_cycle : int list;
      (** system states along the cycle, aligned with [word_cycle] *)
  spec_pair : int;
      (** index of the specification acceptance pair the run violates *)
}
(** A lasso word separating the two languages, together with the
    accepting system run that the product witness exhibits. *)

type t = private {
  model : Kripke.t;
  decode : Kripke.state -> int * int;  (** product state to (sys, spec) *)
  sys_in : int list -> Bdd.t;
      (** product states whose system component is in the list *)
  spec_in : int list -> Bdd.t;
}

val build : ?man:Bdd.man -> 'a Streett.t -> 'a Streett.t -> t
(** [(s,s') -> (t,t')] iff some letter moves both automata; initial
    state is the pair of initial states.  The product lives on [man]
    (default: a fresh manager).  Acceptance conditions are
    ignored here — the checkers encode them as CTL* class formulas over
    [sys_in]/[spec_in] sets. *)

val initial_state : t -> Kripke.state

val extract_word :
  'a Streett.t -> 'a Streett.t -> t -> Kripke.Trace.t -> spec_pair:int -> 'a word
(** Turn a product lasso (a {!Ctlstar.Gffg} witness) into a word: one
    connecting letter per edge, the entry edge into the cycle belonging
    to the word prefix and the closing edge to the word cycle. *)

val run_matches : 'a Streett.t -> 'a word -> bool
(** Structural validation (acceptance not considered): the recorded
    system run starts at the initial state and follows the word's
    letters, including the closing edge back to the cycle head. *)
