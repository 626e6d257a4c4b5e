(** Compilation of SMV programs to symbolic Kripke structures.

    Semantics:
    - declared variables whose [next] is unassigned evolve freely;
    - [next(x) := e] contributes the relation [\/_v (e = v /\ x' = v)];
      nondeterministic sets make the disjuncts overlap;
    - [x := e] is an invariant definition ([x = e] in every state);
    - [INVAR phi] constrains every state ([phi] is conjoined into the
      initial states and both endpoints of the transition relation);
    - [TRANS] may mention [next(x)]; other sections may not;
    - [SPEC] formulas become {!Ctl.t} values whose atoms are the
      [Pred] state sets of their propositional subexpressions;
    - every boolean variable is also exported as a label, so the CLI
      can accept plain CTL formulas over variable names. *)

exception Error of string * Ast.pos option
(** A type or semantic error, with its source position if known. *)

type compiled = {
  model : Kripke.t;
  specs : (string * Ctl.t) list;
      (** each [SPEC], with its source-like rendering *)
  defines : (string * Ast.expr) list;
      (** the [DEFINE] macros, for {!compile_expr} *)
}

val compile : Ast.program -> compiled
(** Images run over the transition clusters (one per [next]
    assignment / [TRANS] constraint, plus one for the process
    interleaving) with early quantification, adjacent clusters merged
    while their product stays within {!Kripke.cluster_limit} nodes
    ({!Kripke.Builder.build}).

    The BDD variable order is seeded by a dependency-graph proximity
    heuristic before any constraint is built: variables co-occurring in
    small constraints are placed adjacently (greedy max-adjacency over
    co-occurrence weights [1/(k-1)], declaration order breaking ties),
    and current/next bit pairs stay interleaved
    ({!Kripke.Builder.seed_order}).  Output does not depend on it:
    states are picked by bit index ({!Kripke.pick_state}), never by
    level. *)

val compile_expr : compiled -> string -> Ctl.t
(** Parse and compile an additional specification against a compiled
    model (the CLI's [--spec] flag).  Raises {!Error}, {!Parser.Error}
    or {!Lexer.Error}. *)
