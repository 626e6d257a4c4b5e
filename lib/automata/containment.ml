type 'a counterexample = 'a Product.word = {
  word_prefix : 'a list;
  word_cycle : 'a list;
  sys_run_prefix : int list;
  sys_run_cycle : int list;
  spec_pair : int;
}

exception Spec_not_deterministic

let check_preconditions ~sys ~spec =
  if
    Array.length sys.Streett.alphabet <> Array.length spec.Streett.alphabet
    || not (Array.for_all2 ( = ) sys.Streett.alphabet spec.Streett.alphabet)
  then invalid_arg "Containment.contains: different alphabets";
  if not (Streett.is_deterministic spec) then raise Spec_not_deterministic

(* phi_F /\ ¬(FG U'_j \/ GF V'_j) as restricted-class conjuncts over the
   product: for every system pair, FG(U) \/ GF(V); plus GF(not U'_j)
   and FG(not V'_j). *)
let conjuncts_for (sys : 'a Streett.t) (spec : 'a Streett.t)
    (prod : Product.t) j =
  let bman = prod.Product.model.Kripke.man in
  let space = prod.Product.model.Kripke.space in
  let zero = Bdd.zero bman in
  let sys_pairs =
    List.map
      (fun (u, v) ->
        { Ctlstar.Gffg.gf = prod.Product.sys_in v; fg = prod.Product.sys_in u })
      sys.Streett.accept
  in
  let u', v' = List.nth spec.Streett.accept j in
  let not_u' = Bdd.diff bman space (prod.Product.spec_in u') in
  let not_v' = Bdd.diff bman space (prod.Product.spec_in v') in
  sys_pairs
  @ [
      { Ctlstar.Gffg.gf = not_u'; fg = zero };
      { Ctlstar.Gffg.gf = zero; fg = not_v' };
    ]

(* Shared search loop: one restricted-class check per specification
   acceptance pair; the first satisfiable one yields the word. *)
let search ?man ~sys ~spec ~npairs ~conjuncts () =
  let prod = Product.build ?man sys spec in
  let m = prod.Product.model in
  let init_state = Product.initial_state prod in
  let rec try_pair j =
    if j >= npairs then Ok ()
    else
      let cs = conjuncts prod j in
      let sat = Ctlstar.Gffg.check m cs in
      if not (Kripke.eval_in_state m sat init_state) then try_pair (j + 1)
      else
        let tr = Ctlstar.Gffg.witness m cs ~start:init_state in
        Error (Product.extract_word sys spec prod tr ~spec_pair:j)
  in
  try_pair 0

let contains ?man ~sys ~spec () =
  check_preconditions ~sys ~spec;
  let sys = Streett.complete sys and spec = Streett.complete spec in
  search ?man ~sys ~spec
    ~npairs:(List.length spec.Streett.accept)
    ~conjuncts:(fun prod j -> conjuncts_for sys spec prod j)
    ()

let check_counterexample ~sys ~spec ce =
  let sys = Streett.complete sys and spec = Streett.complete spec in
  Product.run_matches sys ce
  (* the system run is accepting (inf = cycle states) *)
  && Streett.run_inf_accepts sys ce.sys_run_cycle
  (* the (unique) specification run over the word rejects *)
  &&
  let letter_idx l = Streett.letter_index spec l in
  let word_prefix = List.map letter_idx ce.word_prefix in
  let word_cycle = List.map letter_idx ce.word_cycle in
  not (Streett.accepts_lasso_det spec ~prefix:word_prefix ~cycle:word_cycle)
