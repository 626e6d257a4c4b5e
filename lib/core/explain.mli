(** Recursive counterexample / witness explanation for full CTL.

    This is the user-facing facility of Section 6: when a universally
    quantified specification fails, produce an execution trace that
    demonstrates the negated, existentially quantified formula — e.g.
    for [AG (r -> AF a)] a path from an initial state to a state where
    [r] holds, continued by a fair lasso on which [a] never holds (the
    arbiter counterexample of the case study).

    Explanation recurses through the existential structure: [EU]
    prefixes are extended by explaining the target formula at the
    reached state, [EX] steps are extended by explaining the operand,
    [EG] produces a fair lasso.  Conjunctions explain their first
    temporal conjunct (a single path cannot in general demonstrate two
    temporal facts at once — the classic limitation of linear
    counterexamples); disjunctions explain a disjunct that actually
    holds.  Negated temporal subformulas are treated as opaque state
    sets.  All path quantifiers range over fair paths. *)

exception Cannot_explain of string

val explain :
  ?engine:Ctl.Fair.engine ->
  Kripke.t -> Ctl.t -> start:Kripke.state -> Kripke.Trace.t
(** [explain m f ~start] — a trace demonstrating [f] at [start]; the
    formula must hold there under fair semantics (raises
    {!Cannot_explain} otherwise).  The trace is finite when no temporal
    continuation is required (purely propositional facts, [EU] into a
    propositional target), and a lasso when an [EG] is involved.
    Every fixpoint and ring descent involved charges the limits
    attached to the model's manager; a breach raises
    [Bdd.Limits.Exhausted]. *)

val witness :
  ?engine:Ctl.Fair.engine ->
  Kripke.t -> Ctl.t -> Kripke.Trace.t option
(** A trace from some initial state demonstrating the (existential)
    formula; [None] when no initial state satisfies it. *)

val counterexample :
  ?engine:Ctl.Fair.engine ->
  Kripke.t -> Ctl.t -> Kripke.Trace.t option
(** A trace from some initial state demonstrating the *negation* of the
    formula; [None] when the formula holds on every initial state
    (i.e. the specification is true and there is nothing to show). *)
