(* Tests for conjunctively partitioned transition relations with early
   quantification: images, reachability and full CTL checking must be
   unchanged by partitioning. *)

let prop name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* The same model over the finest partition of [clusters]: one image
   step per cluster. *)
let finest (m : Kripke.t) clusters =
  Kripke.make_partitioned ~man:m.Kripke.man ~vars:(Array.to_list m.Kripke.vars)
    ~nbits:m.Kripke.nbits ~space:m.Kripke.space ~init:m.Kripke.init ~clusters
    ~fairness:m.Kripke.fairness ~labels:m.Kripke.labels ()

let steps (m : Kripke.t) = List.length m.Kripke.pre_schedule

(* The counter builds its relation as one conjunct per bit — the ideal
   partitioning candidate. *)
let counter_pair bits =
  let mono = Models.counter bits in
  (* Partition the monolithic relation ourselves per output bit. *)
  let bman = mono.Kripke.man in
  let clusters =
    List.init bits (fun i ->
        (* project the relation onto the constraint for next-bit i *)
        let others =
          List.filter (fun j -> j <> i) (List.init bits Fun.id)
          |> List.map (fun j -> (2 * j) + 1)
        in
        Bdd.exists bman (Bdd.cube bman others) mono.Kripke.trans)
  in
  (mono, finest mono clusters)

let test_images_agree () =
  let mono, part = counter_pair 4 in
  Alcotest.(check bool) "partitioned schedule" true (steps part > 1);
  Alcotest.(check int) "mono schedule" 1 (steps mono);
  let some_set = Ctl.Check.sat mono (Ctl.atom "b1") in
  Alcotest.(check bool) "pre agrees" true
    (Bdd.equal (Kripke.pre mono some_set) (Kripke.pre part some_set));
  Alcotest.(check bool) "post agrees" true
    (Bdd.equal (Kripke.post mono some_set) (Kripke.post part some_set));
  Alcotest.(check bool) "reachable agrees" true
    (Bdd.equal (Kripke.reachable mono) (Kripke.reachable part))

let prop_partitioned_ctl_agrees =
  (* On random models (single-cluster partition through the builder's
     case list) and the SMV mutex, verify whole satisfaction sets. *)
  prop "partitioned CTL satisfaction sets agree" ~count:150
    (QCheck2.Gen.pair (Models.random_model_gen ~nfair:2 ()) Models.formula_gen)
    (fun (rm, f) ->
      let mono = rm.Models.sym in
      (* the bridge builds via trans cases: one disjunctive cluster,
         scheduled apart from the two space parts *)
      let part = finest mono [ mono.Kripke.trans ] in
      Bdd.equal (Ctl.Fair.sat mono f) (Ctl.Fair.sat part f))

let prop_counter_witnesses_survive_partitioning =
  prop "witnesses on partitioned models validate" ~count:30
    (QCheck2.Gen.int_range 2 4)
    (fun bits ->
      let _, part = counter_pair bits in
      let all_set =
        Bdd.conj part.Kripke.man
          (List.init bits (fun i ->
               Ctl.Check.sat part (Ctl.atom (Printf.sprintf "b%d" i))))
      in
      let eu = Ctl.Check.eu part part.Kripke.space all_set in
      List.for_all
        (fun st ->
          let tr =
            Counterex.Witness.eu part ~f:part.Kripke.space ~g:all_set
              ~start:st
          in
          Counterex.Validate.eu_witness part ~f:part.Kripke.space ~g:all_set
            tr
          = Ok ())
        (Kripke.states_in part eu))

(* ------------------------------------------------------------------ *)
(* The default, size-bounded clustered schedule of compiled models. *)

let load name = Smv.load_file (Filename.concat "../examples/models" name)

(* Every committed model, plus 6- and 8-user arbiters with and without
   fairness, as (name, compiled model). *)
let schedule_models () =
  let committed =
    [ "mutex"; "philosophers"; "cache"; "ring"; "counter12"; "counter26";
      "arbiter" ]
    |> List.map (fun n -> (n, load (n ^ ".smv")))
  in
  let arbiters =
    List.concat_map
      (fun n ->
        List.map
          (fun fairness ->
            ( Printf.sprintf "arbiter-%s-%d"
                (if fairness then "fair" else "unfair") n,
              Smv.load_string (Workloads.arbiter_smv ~fairness n) ))
          [ true; false ])
      [ 6; 8 ]
  in
  committed @ arbiters

(* The clusters an image schedule conjoins (a last all-true step only
   quantifies variables no cluster mentions). *)
let schedule_clusters steps =
  List.filter_map
    (fun s ->
      if Bdd.is_one s.Kripke.cluster then None else Some s.Kripke.cluster)
    steps

(* The schedule invariants every built model keeps: pre and post run
   the same clusters, which conjoin to the relation. *)
let check_schedule name (m : Kripke.t) =
  let merged = schedule_clusters m.Kripke.pre_schedule in
  Alcotest.(check bool)
    (name ^ ": pre and post run the same clusters")
    true
    (List.equal Bdd.equal merged (schedule_clusters m.Kripke.post_schedule));
  Alcotest.(check bool)
    (name ^ ": merged clusters conjoin to trans")
    true
    (Bdd.equal (Bdd.conj m.Kripke.man merged) m.Kripke.trans);
  Alcotest.(check bool)
    (name ^ ": more than one step iff more than one cluster")
    (List.length merged > 1) (steps m > 1);
  merged

(* Builder-made xor automata, whose parts are known: the merge walks
   [clusters @ [space; space']] and never exceeds the bound except with
   a single part. *)
let test_merged_clusters () =
  List.iter
    (fun n ->
      let name = Printf.sprintf "xor-%d" n in
      let m, clusters = Workloads.xor_automaton n in
      let man = m.Kripke.man in
      let parts = clusters @ [ m.Kripke.space; Kripke.prime m m.Kripke.space ] in
      let merged = check_schedule name m in
      Alcotest.(check bool)
        (name ^ ": fewer clusters than parts")
        true
        (List.length merged < List.length parts);
      List.iter
        (fun cl ->
          Alcotest.(check bool)
            (name ^ ": cluster within the limit or a single conjunct")
            true
            (Bdd.size man cl <= Kripke.cluster_limit
            || List.exists (Bdd.equal cl) parts))
        merged)
    [ 8; 64; 100 ];
  (* Every compiled SMV relation merges into one cluster within the
     bound, so the schedule has fewer clusters than the compiler's
     parts (at least the relation's and the two space parts). *)
  List.iter
    (fun (name, c) ->
      let m = c.Smv.Compile.model in
      match check_schedule name m with
      | [ cl ] ->
        Alcotest.(check bool)
          (name ^ ": the one cluster is within the limit")
          true
          (Bdd.size m.Kripke.man cl <= Kripke.cluster_limit)
      | merged ->
        Alcotest.failf "%s: %d clusters, expected one" name
          (List.length merged))
    (schedule_models ())

let test_counter12_one_cluster () =
  let m = (load "counter12.smv").Smv.Compile.model in
  Alcotest.(check int) "a single pre step" 1 (steps m);
  (* Under the proximity order every committed SMV relation fits one
     cluster; the contrast is a hand-built 100-cell xor ring, which the
     default build still leaves multi-cluster. *)
  Alcotest.(check bool) "the 100-cell xor automaton is partitioned" true
    (steps (fst (Workloads.xor_automaton 100)) > 1)

(* A seeded random state set: a union of a few random partial cubes over
   the current-state bits. *)
let random_states m rng =
  let man = m.Kripke.man in
  let cube () =
    List.init m.Kripke.nbits Fun.id
    |> List.filter_map (fun b ->
           match Random.State.int rng 3 with
           | 0 -> Some (Kripke.cur_bit m b)
           | 1 -> Some (Bdd.not_ man (Kripke.cur_bit m b))
           | _ -> None)
    |> Bdd.conj man
  in
  Bdd.disj man (List.init (1 + Random.State.int rng 4) (fun _ -> cube ()))

let test_images_match_monolithic () =
  List.iter
    (fun (name, c) ->
      let m = c.Smv.Compile.model in
      let man = m.Kripke.man in
      let mono_pre s =
        Bdd.and_exists man (Kripke.nxt_cube m) m.Kripke.trans (Kripke.prime m s)
      in
      let mono_post s =
        Kripke.unprime m
          (Bdd.and_exists man (Kripke.cur_cube m) m.Kripke.trans s)
      in
      (* counter26's reachable set takes 2^26 images; its operands are
         the initial state and the random sets only. *)
      let reach =
        if name = "counter26" then [] else [ ("reachable", Kripke.reachable m) ]
      in
      let rng = Random.State.make [| Hashtbl.hash name |] in
      let randoms =
        List.init 20 (fun i ->
            (Printf.sprintf "random %d" i, random_states m rng))
      in
      List.iter
        (fun (what, s) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: pre on %s" name what)
            true
            (Bdd.equal (Kripke.pre m s) (mono_pre s));
          Alcotest.(check bool)
            (Printf.sprintf "%s: post on %s" name what)
            true
            (Bdd.equal (Kripke.post m s) (mono_post s)))
        ((("init", m.Kripke.init) :: reach) @ randoms))
    (schedule_models ())

let suite =
  [
    Alcotest.test_case "images agree" `Quick test_images_agree;
    prop_partitioned_ctl_agrees;
    prop_counter_witnesses_survive_partitioning;
    Alcotest.test_case "merged clusters are bounded and exact" `Quick
      test_merged_clusters;
    Alcotest.test_case "counter12 is one cluster" `Quick
      test_counter12_one_cluster;
    Alcotest.test_case "clustered images = monolithic images" `Quick
      test_images_match_monolithic;
  ]
