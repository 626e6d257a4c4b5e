(* The benchmark's inputs: parametric models from bench/workloads.ml
   (copied in at build time) with SPEC lines appended, the committed
   example models, and the hand-written verdict table they are checked
   against.  Verdicts depend on the family and the spec, never on the
   model size, so one table covers every drawn size. *)

type model = {
  name : string;      (* e.g. "arbiter-fair-7"; unique per source *)
  family : string;    (* verdict-table row *)
  source : string;    (* complete SMV text, SPECs included *)
  expected : (string * bool) list;  (* SPEC text (as the CLI prints it), verdict *)
}

let conj_bits bits =
  String.concat " & " (List.init bits (Printf.sprintf "b%d"))

(* The verdict table.  Each row: a spec template over the size and the
   verdict it has on every member of the family.

   - arbiters: the token is one-hot and always rotates, so two users
     are never acknowledged together and a latched request is always
     served; a served request may be re-raised forever (false, with a
     lasso around the token ring); user 2 can be acknowledged; user 0
     may never request, so [EG !ack0] holds (under fairness the
     witness is a lasso visiting every token position).
   - philosophers: neighbours never eat together; the all-left
     deadlock is reachable; hunger-liveness therefore fails even under
     scheduling fairness; philosopher 0 may think forever.
   - counters: deterministic wrap-around, so the all-ones state is
     reached on every path (the fair-EG query behind [AF]) and by a
     2^bits-state witness (the deep [EF]). *)
let arbiter_specs _n =
  [
    ("AG !(ack0 & ack1)", true);
    ("AG (req0 -> AF ack0)", true);
    ("AG (req1 -> AF !req1)", false);
    ("EF (req2 & ack2)", true);
    ("EG !ack0", true);
  ]

let philosopher_specs n =
  [
    ("AG !(p0.eating & p1.eating)", true);
    ( Printf.sprintf "EF (%s)"
        (String.concat " & "
           (List.init n (Printf.sprintf "p%d.st = left"))),
      true );
    ("AG (p0.st = hungry -> AF p0.eating)", false);
    ("EG !p0.eating", true);
  ]

let counter_specs bits =
  [
    (Printf.sprintf "AF (%s)" (conj_bits bits), true);
    (Printf.sprintf "EF (%s)" (conj_bits bits), true);
  ]

let with_specs text specs =
  text ^ String.concat "" (List.map (fun (s, _) -> "SPEC " ^ s ^ "\n") specs)

let arbiter ~fair n =
  let specs = arbiter_specs n in
  {
    name = Printf.sprintf "arbiter-%s-%d" (if fair then "fair" else "unfair") n;
    family = (if fair then "arbiter-fair" else "arbiter-unfair");
    source = with_specs (Workloads.arbiter_smv ~fairness:fair n) specs;
    expected = specs;
  }

let philosophers n =
  let specs = philosopher_specs n in
  {
    name = Printf.sprintf "philosophers-%d" n;
    family = "philosophers";
    source = with_specs (Workloads.philosophers_smv n) specs;
    expected = specs;
  }

let counter bits =
  let specs = counter_specs bits in
  {
    name = Printf.sprintf "counter-%d" bits;
    family = "counter";
    source = with_specs (Workloads.counter_smv bits) specs;
    expected = specs;
  }

(* The committed models (counter26 excluded: its first SPEC needs
   2^26 iterations).  Verdicts as documented in each file's header. *)
let committed =
  [
    ( "mutex",
      [
        ("AG !(p = crit & q = crit)", true);
        ("AG (p = try -> AF p = crit)", false);
        ("EF q = crit", true);
      ] );
    ( "philosophers",
      [
        ("AG !(p0.eating & p1.eating)", true);
        ("AG !(p1.eating & p2.eating)", true);
        ("AG !(p2.eating & p0.eating)", true);
        ("EF ((p0.st = left & p1.st = left) & p2.st = left)", true);
        ("AG (p0.st = hungry -> AF p0.eating)", false);
      ] );
    ( "cache",
      [
        ("AG !(c0 = owned & c1 = owned)", true);
        ("AG !(c0 = owned & c1 = shared)", true);
        ("AG !(c1 = owned & c0 = shared)", true);
        ("AG (op = wr0 -> AX c0 = owned)", true);
        ("AG (c0 = invalid -> EF c0 = owned)", true);
        ("AG (c0 = shared -> AF c0 = owned)", false);
      ] );
    ( "ring",
      [
        ("AG AF g1.out", true);
        ("AG AF !g1.out", true);
        ("AG (AF g2.out & AF !g2.out)", true);
        ("EF ((g1.out & g2.out) & g3.out)", false);
      ] );
    ("counter12", [ ("EF " ^ conj_bits 12, true); ("AG (b0 | !b0)", true) ]);
    ( "arbiter",
      [
        ("AG !(ack0 & ack1)", true);
        ("AG !(ack3 & ack6)", true);
        ("AG (req0 -> AF ack0)", true);
        ("AG (req5 -> AF ack5)", true);
        ("AG (req1 -> AF !req1)", false);
        ("EF (req2 & ack2)", true);
      ] );
  ]

let load_committed ~root =
  List.map
    (fun (base, expected) ->
      {
        name = base;
        family = "committed-" ^ base;
        source =
          Util.read_file (Filename.concat root ("examples/models/" ^ base ^ ".smv"));
        expected;
      })
    committed

(* Fisher-Yates. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

(* ------------------------------------------------------------------ *)
(* Workload inputs: seeded stratified draws.  A pass is a list of
   (model, multiplicity); the runner expands and shuffles it with the
   seed.  Multiplicities are fixed per stratum so the total work of a
   pass — and with it the timing — does not depend on the seed, only
   the order does, and runs on different seeds are comparable. *)

(* cli-verdict: one-shot [-q] checks, 122 per pass.  The heavy
   strata (8-user fair arbiter, 9- and 10-user unfair arbiters) appear
   a few times each, the cheap ones often enough that per-invocation
   percentiles have at least ten samples beyond p90. *)
let verdict_pass () =
  [
    (arbiter ~fair:true 6, 14);
    (arbiter ~fair:true 7, 10);
    (arbiter ~fair:true 8, 3);
    (arbiter ~fair:false 8, 6);
    (arbiter ~fair:false 9, 3);
    (arbiter ~fair:false 10, 2);
  ]
  @ List.map (fun n -> (philosophers n, 12)) (range 5 8)
  @ List.map (fun b -> (counter b, 12)) (range 10 12)

(* cli-evidence: one-shot [--certify] checks with traces, 100 per
   pass: every committed model but counter26, long counter witnesses,
   unfair-arbiter lassos over large BDDs, multi-constraint fair
   lassos.  Only seven checks take over half a second, so the p90
   falls inside the large ~0.3 s stratum (10-bit counters, 7-user fair
   arbiters) rather than on the cliff between the two. *)
let evidence_pass ~root =
  let committed = load_committed ~root in
  let weight (m : model) =
    match m.name with "counter12" | "arbiter" -> 1 | _ -> 6
  in
  List.map (fun m -> (m, weight m)) committed
  @ [
      (counter 9, 9);
      (counter 10, 6);
      (counter 11, 1);
      (counter 12, 1);
      (arbiter ~fair:false 8, 2);
      (arbiter ~fair:false 9, 1);
      (arbiter ~fair:true 6, 12);
      (arbiter ~fair:true 7, 6);
    ]
  @ List.map (fun n -> (philosophers n, 9)) (range 5 8)

let expand_shuffle rng pass =
  shuffle rng (List.concat_map (fun (m, k) -> List.init k (fun _ -> m)) pass)

(* serve-mixed: twelve small models, listed from most to least
   popular (the rank is fixed, so the seed cannot make an expensive
   model hot), and one extra spec per family that a request may add on
   top of the model's SPECs. *)
let serve_models () =
  [
    arbiter ~fair:true 4;
    counter 8;
    philosophers 4;
    arbiter ~fair:false 6;
    counter 9;
    arbiter ~fair:true 5;
    philosophers 5;
    arbiter ~fair:false 7;
    counter 10;
    philosophers 6;
    arbiter ~fair:true 6;
    arbiter ~fair:false 5;
  ]

let extra_spec (m : model) =
  match m.family with
  | "arbiter-fair" | "arbiter-unfair" -> ("EF (req1 & ack1)", true)
  | "philosophers" -> ("EF p1.eating", true)
  | "counter" -> ("EF (b1 & !b0)", true)
  | f -> invalid_arg ("Models.extra_spec: no extra spec for " ^ f)

type request = { model : model; extra : bool; traces : bool }

(* A pass of [n] requests with a fixed composition: model i gets a
   share of the pass proportional to 1/(i+1) (Zipf, exponent 1), and
   its requests cycle through the variants so that a quarter add the
   extra spec and half turn traces off.  Identical repeats arise from
   the skew.  The seed only fixes the order, so the work in a pass
   does not depend on it. *)
let variants =
  [| (false, false); (false, true); (false, false); (false, true);
     (false, false); (false, true); (true, false); (true, true) |]

let serve_requests rng models n =
  let k = List.length models in
  let weights = List.init k (fun i -> 1. /. float_of_int (i + 1)) in
  let total = List.fold_left ( +. ) 0. weights in
  let shares = List.map (fun w -> float_of_int n *. w /. total) weights in
  (* Largest-remainder rounding, so the counts sum to [n]. *)
  let floors = List.map Float.to_int shares in
  let short = n - List.fold_left ( + ) 0 floors in
  let by_remainder =
    List.sort
      (fun (_, a) (_, b) -> Float.compare b a)
      (List.mapi (fun i x -> (i, x -. Float.trunc x)) shares)
  in
  let bonus = List.filteri (fun j _ -> j < short) by_remainder |> List.map fst in
  let counts = List.mapi (fun i f -> if List.mem i bonus then f + 1 else f) floors in
  List.concat
    (List.map2
       (fun model c ->
         List.init c (fun j ->
             let extra, traces = variants.(j mod Array.length variants) in
             { model; extra; traces }))
       models counts)
  |> shuffle rng
