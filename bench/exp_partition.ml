(* E9 (ablation) — image schedules for the transition relation: one
   monolithic relational product, size-bounded clusters (the default:
   adjacent conjuncts merged up to [Kripke.cluster_limit] nodes), and
   the finest partition (one step per conjunct), all with early
   quantification (Burch-Clarke-Long, as in SMV).  A second table
   sweeps the cluster bound.

   Workloads: the n-cell XOR automaton (one conjunct per cell) and the
   benchmark's SMV families — arbiters, counters and dining
   philosophers.  A compiled SMV model keeps only its default schedule,
   so its rows compare that against the monolithic product; the finest
   partition and the bound sweep run on the XOR automata, whose
   builder hands back its conjuncts.  Every cell builds its variant on
   a fresh manager from the same source and times reachability plus
   every SPEC under fairness; the figure is the median of the
   repetitions. *)

type source = {
  name : string;
  conjuncts : bool;  (** does [load] hand back the conjuncts? *)
  load : unit -> Kripke.t * Bdd.t list option * Ctl.t list;
      (** a fresh model, its transition conjuncts when known, and its
          specs *)
}

let smv name text =
  {
    name;
    conjuncts = false;
    load =
      (fun () ->
        let c = Smv.load_string text in
        (c.Smv.Compile.model, None, List.map snd c.Smv.Compile.specs));
  }

let xor n =
  {
    name = Printf.sprintf "xor-%d" n;
    conjuncts = true;
    load =
      (fun () ->
        let m, clusters = Workloads.xor_automaton n in
        (m, Some clusters, []));
  }

let sources ~full =
  let arbiters fair sizes =
    List.map
      (fun n ->
        smv
          (Printf.sprintf "arbiter-%s-%d" (if fair then "fair" else "unfair") n)
          (Workloads.arbiter_smv ~fairness:fair n))
      sizes
  in
  List.map xor [ 8; 16; 24 ]
  @ arbiters false (if full then [ 6; 7; 8; 9; 10 ] else [ 6; 8 ])
  @ arbiters true (if full then [ 6; 7; 8 ] else [ 6 ])
  @ List.map
      (fun b -> smv (Printf.sprintf "counter-%d" b) (Workloads.counter_smv b))
      (if full then [ 10; 11; 12 ] else [ 10 ])
  @ List.map
      (fun n ->
        smv (Printf.sprintf "philosophers-%d" n) (Workloads.philosophers_smv n))
      (if full then [ 5; 6; 7; 8 ] else [ 5; 6 ])

(* [Default] is the schedule the model was built with: clusters merged
   up to [Kripke.cluster_limit]. *)
type variant = Mono | Default | Limit of int | Finest

(* The variants a source can be rebuilt in: [Limit] and [Finest] need
   the conjuncts. *)
let variants_of src =
  [ Mono; Default ]
  @ if src.conjuncts then [ Limit 100; Limit 5000; Finest ] else []

(* The same model over another schedule of the same relation. *)
let rebuild variant (m : Kripke.t) clusters =
  let vars = Array.to_list m.Kripke.vars in
  let partitioned ?limit () =
    match clusters with
    | Some clusters ->
      Kripke.make_partitioned ?limit ~man:m.Kripke.man ~vars
        ~nbits:m.Kripke.nbits ~space:m.Kripke.space ~init:m.Kripke.init
        ~clusters ~fairness:m.Kripke.fairness ~labels:m.Kripke.labels ()
    | None -> invalid_arg "E9: no conjuncts to reschedule"
  in
  match variant with
  | Mono ->
    Kripke.make ~man:m.Kripke.man ~vars ~nbits:m.Kripke.nbits
      ~space:m.Kripke.space ~init:m.Kripke.init ~trans:m.Kripke.trans
      ~fairness:m.Kripke.fairness ~labels:m.Kripke.labels ()
  | Default -> m
  | Limit limit -> partitioned ~limit ()
  | Finest -> partitioned ()

type cell = {
  clusters : int;     (* image steps conjoining a non-trivial cluster *)
  largest : int;      (* nodes of the largest cluster *)
  check_s : float;    (* reachability + every spec, median *)
  relprod_misses : int;
}

let measure ~reps src variant =
  let one () =
    let m, clusters, specs = src.load () in
    let m = rebuild variant m clusters in
    let man = m.Kripke.man in
    let steps =
      List.filter
        (fun s -> not (Bdd.is_one s.Kripke.cluster))
        m.Kripke.pre_schedule
    in
    let before = Bdd.stats man in
    let (), t =
      Harness.time_once (fun () ->
          ignore (Kripke.reachable m);
          List.iter (fun f -> ignore (Ctl.Fair.holds m f)) specs)
    in
    let d = Bdd.diff_stats (Bdd.stats man) before in
    {
      clusters = List.length steps;
      largest =
        List.fold_left
          (fun acc s -> max acc (Bdd.size man s.Kripke.cluster))
          0 steps;
      check_s = t;
      relprod_misses = d.Bdd.relprod.Bdd.misses;
    }
  in
  let runs = List.init reps (fun _ -> one ()) in
  let times = List.sort Float.compare (List.map (fun c -> c.check_s) runs) in
  { (List.hd runs) with check_s = List.nth times (reps / 2) }

let run ~full =
  let reps = if full then 3 else 1 in
  let results =
    List.map
      (fun src ->
        (src, List.map (fun v -> (v, measure ~reps src v)) (variants_of src)))
      (sources ~full)
  in
  let secs c = Harness.seconds_string c.check_s in
  let shape c = Printf.sprintf "%d (%d)" c.clusters c.largest in
  let cell v cells f =
    match List.assoc_opt v cells with Some c -> f c | None -> "-"
  in
  Harness.print_table
    ~title:
      "E9 (ablation): image schedules — monolithic vs clustered (default) vs \
       finest partition"
    ~header:
      [ "model"; "clusters (largest)"; "mono"; "clustered"; "finest";
        "speedup"; "relprod misses mono"; "relprod misses clustered" ]
    (List.map
       (fun (src, cells) ->
         let mono = List.assoc Mono cells in
         let dflt = List.assoc Default cells in
         [
           src.name; shape dflt; secs mono; secs dflt; cell Finest cells secs;
           Printf.sprintf "%.1fx" (mono.check_s /. dflt.check_s);
           string_of_int mono.relprod_misses;
           string_of_int dflt.relprod_misses;
         ])
       results);
  Harness.print_table
    ~title:"E9 (sweep): cluster bound — clusters (largest) and check time"
    ~header:[ "model"; "limit 100"; "limit 1000"; "limit 5000" ]
    (List.filter_map
       (fun (src, cells) ->
         if not (List.mem_assoc Finest cells) then None
         else
           Some
             (src.name
             :: List.map
                  (fun v ->
                    cell v cells (fun c ->
                        Printf.sprintf "%s %s" (shape c) (secs c)))
                  [ Limit 100; Default; Limit 5000 ]))
       results);
  Harness.note
    "each image conjoins the clusters in turn and quantifies a variable as";
  Harness.note
    "soon as no later cluster mentions it; merging adjacent conjuncts up to";
  Harness.note
    "the bound trades fewer steps against larger clusters."

let bechamel =
  let prepared =
    lazy
      (let m, clusters = Workloads.xor_automaton 12 in
       let clusters = Some clusters in
       (rebuild Mono m clusters, m, rebuild Finest m clusters))
  in
  let reach pick () =
    let m = pick (Lazy.force prepared) in
    Kripke.set_reach_memo m None;
    Kripke.reachable m
  in
  Bechamel.Test.make_grouped ~name:"e9-partitioning"
    [
      Bechamel.Test.make ~name:"monolithic"
        (Bechamel.Staged.stage (reach (fun (m, _, _) -> m)));
      Bechamel.Test.make ~name:"clustered"
        (Bechamel.Staged.stage (reach (fun (_, m, _) -> m)));
      Bechamel.Test.make ~name:"finest"
        (Bechamel.Staged.stage (reach (fun (_, _, m) -> m)));
    ]
