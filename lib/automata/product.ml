type 'a word = {
  word_prefix : 'a list;
  word_cycle : 'a list;
  sys_run_prefix : int list;
  sys_run_cycle : int list;
  spec_pair : int;
}

type t = {
  model : Kripke.t;
  decode : Kripke.state -> int * int;
  sys_in : int list -> Bdd.t;
  spec_in : int list -> Bdd.t;
}

let build ?man (sys : 'a Streett.t) (spec : 'a Streett.t) =
  let b = Kripke.Builder.create ?man () in
  let sv = Kripke.Builder.range_var b "sys" 0 (sys.Streett.nstates - 1) in
  let pv = Kripke.Builder.range_var b "spec" 0 (spec.Streett.nstates - 1) in
  let bman = Kripke.Builder.man b in
  let s_at i = Kripke.Builder.is b sv (Kripke.I i) in
  let s_at' i = Kripke.Builder.is' b sv (Kripke.I i) in
  let p_at i = Kripke.Builder.is b pv (Kripke.I i) in
  let p_at' i = Kripke.Builder.is' b pv (Kripke.I i) in
  let nletters = Array.length sys.Streett.alphabet in
  for a = 0 to nletters - 1 do
    let sys_moves = ref [] in
    Array.iteri
      (fun s row ->
        List.iter
          (fun t -> sys_moves := Bdd.and_ bman (s_at s) (s_at' t) :: !sys_moves)
          row.(a))
      sys.Streett.trans;
    let spec_moves = ref [] in
    Array.iteri
      (fun s row ->
        List.iter
          (fun t ->
            spec_moves := Bdd.and_ bman (p_at s) (p_at' t) :: !spec_moves)
          row.(a))
      spec.Streett.trans;
    Kripke.Builder.add_trans_case b
      (Bdd.and_ bman (Bdd.disj bman !sys_moves) (Bdd.disj bman !spec_moves))
  done;
  Kripke.Builder.add_init b
    (Bdd.and_ bman (s_at sys.Streett.init) (p_at spec.Streett.init));
  let model = Kripke.Builder.build b in
  let decode st =
    let i =
      match Kripke.value_of_state sv st with
      | Kripke.I i -> i
      | Kripke.B _ | Kripke.S _ -> assert false
    in
    let j =
      match Kripke.value_of_state pv st with
      | Kripke.I j -> j
      | Kripke.B _ | Kripke.S _ -> assert false
    in
    (i, j)
  in
  let sys_in states = Bdd.disj bman (List.map s_at states) in
  let spec_in states = Bdd.disj bman (List.map p_at states) in
  { model; decode; sys_in; spec_in }

let initial_state prod =
  match Kripke.pick_state prod.model prod.model.Kripke.init with
  | Some st -> st
  | None -> assert false

(* Recover a letter connecting two consecutive product states. *)
let connecting_letter (sys : 'a Streett.t) (spec : 'a Streett.t) (s, p) (t, q)
    =
  let nletters = Array.length sys.Streett.alphabet in
  let rec find a =
    if a >= nletters then None
    else if
      List.mem t (Streett.successors sys s a)
      && List.mem q (Streett.successors spec p a)
    then Some a
    else find (a + 1)
  in
  find 0

let extract_word sys spec prod (tr : Kripke.Trace.t) ~spec_pair =
  let prefix_pairs = List.map prod.decode tr.Kripke.Trace.prefix in
  let cycle_pairs = List.map prod.decode tr.Kripke.Trace.cycle in
  let all = prefix_pairs @ cycle_pairs in
  let rec letters acc = function
    | a :: (b :: _ as rest) -> (
      match connecting_letter sys spec a b with
      | Some l -> letters (l :: acc) rest
      | None -> assert false)
    | [ _ ] | [] -> List.rev acc
  in
  let path_letters = letters [] all in
  let closing =
    match (List.rev cycle_pairs, cycle_pairs) with
    | last :: _, first :: _ -> (
      match connecting_letter sys spec last first with
      | Some l -> l
      | None -> assert false)
    | _, _ -> assert false
  in
  (* The word prefix drives the run from the initial state into the
     cycle head: all prefix-internal edges plus the entry edge; the
     word cycle is the cycle-internal edges plus the closing edge. *)
  let np = List.length prefix_pairs in
  let word_prefix_idx = List.filteri (fun i _ -> i < np) path_letters in
  let word_cycle_idx =
    List.filteri (fun i _ -> i >= np) path_letters @ [ closing ]
  in
  let letter i = sys.Streett.alphabet.(i) in
  {
    word_prefix = List.map letter word_prefix_idx;
    word_cycle = List.map letter word_cycle_idx;
    sys_run_prefix = List.map fst prefix_pairs;
    sys_run_cycle = List.map fst cycle_pairs;
    spec_pair;
  }

let run_matches (sys : 'a Streett.t) ce =
  let letter_idx l = Streett.letter_index sys l in
  match List.map letter_idx (ce.word_prefix @ ce.word_cycle) with
  | exception Not_found -> false
  | word ->
    if ce.word_cycle = [] || ce.sys_run_cycle = [] then false
    else
      let run = ce.sys_run_prefix @ ce.sys_run_cycle in
      let rec follows states letters =
        match (states, letters) with
        | [ _last ], [] -> true
        | s :: (t :: _ as rest), a :: more ->
          List.mem t (Streett.successors sys s a) && follows rest more
        | _, _ -> false
      in
      let closing_ok =
        match
          (List.rev ce.sys_run_cycle, ce.sys_run_cycle,
           List.rev (List.map letter_idx ce.word_cycle))
        with
        | last :: _, first :: _, closing :: _ ->
          List.mem first (Streett.successors sys last closing)
        | _, _, _ -> false
      in
      let start_ok =
        match run with s :: _ -> s = sys.Streett.init | [] -> false
      in
      let body_word =
        List.filteri (fun i _ -> i < List.length word - 1) word
      in
      start_ok && follows run body_word && closing_ok
