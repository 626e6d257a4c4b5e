(* Tests for conjunctively partitioned transition relations with early
   quantification: images, reachability and full CTL checking must be
   unchanged by partitioning. *)

let prop name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* The counter builds its relation as one conjunct per bit — the ideal
   partitioning candidate. *)
let counter_pair bits =
  let mono = Models.counter bits in
  (* Rebuild through the builder to get the partitioned variant of the
     same relation; Models.counter uses add_trans per bit, so
     re-deriving the clusters via a fresh build is the easiest route:
     partition the monolithic relation ourselves per output bit. *)
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
  (mono, Kripke.with_partition mono clusters)

let test_images_agree () =
  let mono, part = counter_pair 4 in
  Alcotest.(check bool) "partitioned flag" true (Kripke.partitioned part);
  Alcotest.(check bool) "mono flag" false (Kripke.partitioned mono);
  let some_set = Ctl.Check.sat mono (Ctl.atom "b1") in
  Alcotest.(check bool) "pre agrees" true
    (Bdd.equal (Kripke.pre mono some_set) (Kripke.pre part some_set));
  Alcotest.(check bool) "post agrees" true
    (Bdd.equal (Kripke.post mono some_set) (Kripke.post part some_set));
  Alcotest.(check bool) "reachable agrees" true
    (Bdd.equal (Kripke.reachable mono) (Kripke.reachable part))

let test_bad_partition_rejected () =
  let mono = Models.counter 3 in
  Alcotest.(check bool) "bad clusters rejected" true
    (match Kripke.with_partition mono [ Bdd.one mono.Kripke.man ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_smv_partitioned_end_to_end () =
  let src =
    "MODULE main\n\
     VAR a : boolean; c : 0..5; s : {x, y, z};\n\
     ASSIGN\n\
     init(a) := FALSE; next(a) := !a;\n\
     init(c) := 0; next(c) := (c + 1) mod 6;\n\
     init(s) := x;\n\
     next(s) := case s = x : {x, y}; s = y : z; TRUE : x; esac;\n\
     FAIRNESS s = z\n\
     SPEC AG (c = 5 -> AX c = 0)\n\
     SPEC AG AF s = x\n\
     SPEC AG !(a & c = 1)\n"
  in
  let mono = Smv.load_string src in
  let part = Smv.load_string ~partitioned:true src in
  Alcotest.(check bool) "partitioned" true
    (Kripke.partitioned part.Smv.Compile.model);
  List.iter2
    (fun (name, f_mono) (_, f_part) ->
      Alcotest.(check bool)
        ("same verdict for " ^ name)
        (Ctl.Fair.holds mono.Smv.Compile.model f_mono)
        (Ctl.Fair.holds part.Smv.Compile.model f_part))
    mono.Smv.Compile.specs part.Smv.Compile.specs

let prop_partitioned_ctl_agrees =
  (* On random models (single-cluster partition through the builder's
     case list) and the SMV mutex, verify whole satisfaction sets. *)
  prop "partitioned CTL satisfaction sets agree" ~count:150
    (QCheck2.Gen.pair (Models.random_model_gen ~nfair:2 ()) Models.formula_gen)
    (fun (rm, f) ->
      let mono = rm.Models.sym in
      (* the bridge builds via trans cases: one disjunctive cluster *)
      let clusters = [ mono.Kripke.trans ] in
      (* with_partition requires clusters /\ space /\ space' = trans;
         trans already includes the space conjuncts. *)
      let part = Kripke.with_partition mono clusters in
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

(* The parts the compiler's schedule is merged from, in walk order. *)
let parts_of (c : Smv.Compile.compiled) =
  let m = c.Smv.Compile.model in
  c.Smv.Compile.clusters @ [ m.Kripke.space; Kripke.prime m m.Kripke.space ]

(* The clusters an image schedule conjoins (a last all-true step only
   quantifies variables no cluster mentions). *)
let schedule_clusters steps =
  List.filter_map
    (fun s ->
      if Bdd.is_one s.Kripke.cluster then None else Some s.Kripke.cluster)
    steps

let test_merged_clusters () =
  List.iter
    (fun (name, c) ->
      let m = c.Smv.Compile.model in
      let man = m.Kripke.man in
      let parts = parts_of c in
      let merged = schedule_clusters m.Kripke.pre_schedule in
      Alcotest.(check bool)
        (name ^ ": pre and post run the same clusters")
        true
        (List.equal Bdd.equal merged
           (schedule_clusters m.Kripke.post_schedule));
      Alcotest.(check bool)
        (name ^ ": merged clusters conjoin to trans")
        true
        (Bdd.equal (Bdd.conj man merged) m.Kripke.trans);
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
        merged;
      Alcotest.(check bool)
        (name ^ ": partitioned iff more than one cluster")
        (List.length merged > 1) (Kripke.partitioned m))
    (schedule_models ())

let test_counter12_one_cluster () =
  let m = (load "counter12.smv").Smv.Compile.model in
  Alcotest.(check int) "a single pre step" 1
    (List.length m.Kripke.pre_schedule);
  Alcotest.(check bool) "not partitioned" false (Kripke.partitioned m);
  (* Under the proximity order every committed SMV relation fits one
     cluster; the contrast is a hand-built 100-cell xor ring, which the
     default build still leaves multi-cluster. *)
  Alcotest.(check bool) "the 100-cell xor automaton is partitioned" true
    (Kripke.partitioned (fst (Workloads.xor_automaton 100)))

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
    Alcotest.test_case "bad partition rejected" `Quick test_bad_partition_rejected;
    Alcotest.test_case "SMV partitioned end to end" `Quick test_smv_partitioned_end_to_end;
    prop_partitioned_ctl_agrees;
    prop_counter_witnesses_survive_partitioning;
    Alcotest.test_case "merged clusters are bounded and exact" `Quick
      test_merged_clusters;
    Alcotest.test_case "counter12 is one cluster" `Quick
      test_counter12_one_cluster;
    Alcotest.test_case "clustered images = monolithic images" `Quick
      test_images_match_monolithic;
  ]
