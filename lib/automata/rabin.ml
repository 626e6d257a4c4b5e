type 'a t = {
  automaton : 'a Streett.t;
}

let make ~nstates ~init ~alphabet ~delta ~accept =
  { automaton = Streett.make ~nstates ~init ~alphabet ~delta ~accept }

let is_deterministic r = Streett.is_deterministic r.automaton
let is_complete r = Streett.is_complete r.automaton

(* Streett.complete's sink joins no E_i or F_i, so sink runs satisfy no
   Rabin pair and are rejected — exactly language preservation.  (The
   pair it adds when the list is empty mentions no F states, hence
   never fires under Rabin semantics.) *)
let complete r = { automaton = Streett.complete r.automaton }

let run_inf_accepts r inf =
  let inf = List.sort_uniq compare inf in
  List.exists
    (fun (e, f) ->
      (not (List.exists (fun s -> List.mem s e) inf))
      && List.exists (fun s -> List.mem s f) inf)
    r.automaton.Streett.accept

let accepts_lasso_det r ~prefix ~cycle =
  run_inf_accepts r (Streett.lasso_inf r.automaton ~prefix ~cycle)

(* E (phi_F /\ ¬phi_F'): phi_F = \/_i (FG ¬E_i /\ GF F_i) distributes
   over the disjunction — one restricted-class formula per system
   pair; ¬phi_F' = /\_j (GF E'_j \/ FG ¬F'_j). *)
let conjuncts_for (sys : 'a Streett.t) (spec : 'a Streett.t)
    (prod : Product.t) i =
  let bman = prod.Product.model.Kripke.man in
  let space = prod.Product.model.Kripke.space in
  let zero = Bdd.zero bman in
  let e_i, f_i = List.nth sys.Streett.accept i in
  let not_e = Bdd.diff bman space (prod.Product.sys_in e_i) in
  let sys_conjuncts =
    [
      { Ctlstar.Gffg.gf = zero; fg = not_e };
      { Ctlstar.Gffg.gf = prod.Product.sys_in f_i; fg = zero };
    ]
  in
  let spec_conjuncts =
    List.map
      (fun (e', f') ->
        {
          Ctlstar.Gffg.gf = prod.Product.spec_in e';
          fg = Bdd.diff bman space (prod.Product.spec_in f');
        })
      spec.Streett.accept
  in
  sys_conjuncts @ spec_conjuncts

let contains ~sys ~spec () =
  Containment.check_preconditions ~sys:sys.automaton ~spec:spec.automaton;
  let sys = complete sys and spec = complete spec in
  Containment.search ~sys:sys.automaton ~spec:spec.automaton
    ~npairs:(List.length sys.automaton.Streett.accept)
    ~conjuncts:(fun prod i -> conjuncts_for sys.automaton spec.automaton prod i)
    ()

let check_counterexample ~sys ~spec ce =
  let sys = complete sys and spec = complete spec in
  Product.run_matches sys.automaton ce
  && run_inf_accepts sys ce.Containment.sys_run_cycle
  &&
  let letter_idx l = Streett.letter_index spec.automaton l in
  let word_prefix = List.map letter_idx ce.Containment.word_prefix in
  let word_cycle = List.map letter_idx ce.Containment.word_cycle in
  not (accepts_lasso_det spec ~prefix:word_prefix ~cycle:word_cycle)
