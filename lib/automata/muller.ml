type 'a t = {
  automaton : 'a Streett.t;
  family : int list list;
}

exception Spec_too_large of int

let make ~nstates ~init ~alphabet ~delta ~family =
  let family = List.map (List.sort_uniq compare) family in
  List.iter
    (List.iter (fun s ->
         if s < 0 || s >= nstates then
           invalid_arg "Muller.make: family state out of range"))
    family;
  {
    automaton = Streett.make ~nstates ~init ~alphabet ~delta ~accept:[];
    family = List.sort_uniq compare family;
  }

let is_deterministic m = Streett.is_deterministic m.automaton
let is_complete m = Streett.is_complete m.automaton

let complete m = { m with automaton = Streett.complete m.automaton }

let run_inf_accepts m inf =
  let inf = List.sort_uniq compare inf in
  List.mem inf m.family

let accepts_lasso_det m ~prefix ~cycle =
  run_inf_accepts m (Streett.lasso_inf m.automaton ~prefix ~cycle)

(* "inf(run of automaton [side]) = S" as class conjuncts over the
   product: GF(at s) for each s in S, plus FG(inside S). *)
let exact_inf_conjuncts (prod : Product.t) ~side states =
  let bman = prod.Product.model.Kripke.man in
  let zero = Bdd.zero bman in
  let in_set =
    match side with
    | `Sys -> prod.Product.sys_in states
    | `Spec -> prod.Product.spec_in states
  in
  let at s =
    match side with
    | `Sys -> prod.Product.sys_in [ s ]
    | `Spec -> prod.Product.spec_in [ s ]
  in
  { Ctlstar.Gffg.gf = zero; fg = in_set }
  :: List.map (fun s -> { Ctlstar.Gffg.gf = at s; fg = zero }) states

(* All non-empty subsets of 0..n-1 (inf sets are never empty for a
   complete automaton). *)
let all_subsets n =
  if n > 16 then raise (Spec_too_large n);
  let rec go bits =
    if bits >= 1 lsl n then []
    else
      let set =
        List.filter (fun s -> bits land (1 lsl s) <> 0) (List.init n Fun.id)
      in
      set :: go (bits + 1)
  in
  List.filter (fun s -> s <> []) (go 1)

let contains ~sys ~spec () =
  Containment.check_preconditions ~sys:sys.automaton ~spec:spec.automaton;
  let sys = complete sys and spec = complete spec in
  (* Disjuncts: (system inf-set S in F_sys) x (spec subset T not in
     F_spec). *)
  let bad_spec_sets =
    List.filter
      (fun t -> not (List.mem t spec.family))
      (all_subsets spec.automaton.Streett.nstates)
  in
  let disjuncts =
    List.concat_map
      (fun s -> List.map (fun t -> (s, t)) bad_spec_sets)
      sys.family
  in
  let disjuncts = Array.of_list disjuncts in
  Containment.search ~sys:sys.automaton ~spec:spec.automaton
    ~npairs:(Array.length disjuncts)
    ~conjuncts:(fun prod j ->
      let s, t = disjuncts.(j) in
      exact_inf_conjuncts prod ~side:`Sys s
      @ exact_inf_conjuncts prod ~side:`Spec t)
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
