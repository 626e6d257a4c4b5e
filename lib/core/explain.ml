exception Cannot_explain of string

(* Does the formula contain a temporal operator reachable through the
   boolean skeleton only (i.e. one a path explanation can exhibit)?
   Negated temporal operators are opaque: a single path cannot refute a
   path quantifier. *)
let rec is_temporal = function
  | Ctl.EX _ | Ctl.EU _ | Ctl.EG _ -> true
  | Ctl.And (a, b) | Ctl.Or (a, b) -> is_temporal a || is_temporal b
  | Ctl.True | Ctl.False | Ctl.Atom _ | Ctl.Pred _ | Ctl.Not _
    ->
    false
  | Ctl.Imp _ | Ctl.Iff _ | Ctl.EF _ | Ctl.AX _ | Ctl.AF _
  | Ctl.AG _ | Ctl.AU _ ->
    (* explain works on push_neg-normalised formulas *)
    assert false

let explain ?engine m formula ~start =
  let bman = m.Kripke.man in
  let fair = Ctl.Fair.fair_states ?engine m in
  let satf f = Ctl.Fair.sat ?engine m f in
  let holds_at f st = Kripke.eval_in_state m (satf f) st in
  let rec go f st =
    if not (holds_at f st) then
      raise
        (Cannot_explain
           (Printf.sprintf "formula %s does not hold at the start state"
              (Ctl.to_string f)));
    match f with
    | Ctl.True | Ctl.False | Ctl.Atom _ | Ctl.Pred _
    | Ctl.Not _ ->
      Kripke.Trace.finite [ st ]
    | Ctl.And (a, b) ->
      if is_temporal a then go a st
      else if is_temporal b then go b st
      else Kripke.Trace.finite [ st ]
    | Ctl.Or (a, b) -> if holds_at a st then go a st else go b st
    | Ctl.EX a ->
      let target = Bdd.and_ bman (satf a) fair in
      let step = Witness.ex m ~f:target ~start:st in
      continue step a
    | Ctl.EU (a, b) ->
      let target = Bdd.and_ bman (satf b) fair in
      let prefix = Witness.eu m ~f:(satf a) ~g:target ~start:st in
      continue prefix b
    | Ctl.EG a -> Witness.eg ?engine m ~f:(satf a) ~start:st
    | Ctl.Imp _ | Ctl.Iff _ | Ctl.EF _ | Ctl.AX _ | Ctl.AF _
    | Ctl.AG _ | Ctl.AU _ ->
      assert false
  (* Extend a finite trace by explaining [f] at its final state (only
     when [f] still has something to show). *)
  and continue prefix f =
    if not (is_temporal f) then prefix
    else
      match List.rev (Kripke.Trace.states prefix) with
      | [] -> assert false
      | last :: _ -> Kripke.Trace.append prefix (go f last)
  in
  go (Ctl.push_neg formula) start

let witness ?engine m formula =
  let sat = Ctl.Fair.sat ?engine m formula in
  let good = Bdd.and_ m.Kripke.man m.Kripke.init sat in
  match Kripke.pick_state m good with
  | None -> None
  | Some st -> Some (explain ?engine m formula ~start:st)

let counterexample ?engine m formula =
  let sat = Ctl.Fair.sat ?engine m formula in
  let bad = Bdd.diff m.Kripke.man m.Kripke.init sat in
  match Kripke.pick_state m bad with
  | None -> None
  | Some st -> Some (explain ?engine m (Ctl.Not formula) ~start:st)
