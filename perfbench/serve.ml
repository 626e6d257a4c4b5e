(* The serve-mixed workload: one [smv_check --serve --socket] process
   with its default single worker and a model pool smaller than the
   working set, driven closed loop over two client connections from
   this one process (each connection sends its next request when its
   previous reply arrives, so one request usually queues behind the
   other).  Every reply must carry exactly the bytes and exit code of
   the one-shot CLI on the same model, specs and trace option. *)

module Json = Server.Json

let pool_size = 10
let requests_per_pass = 250
let setups = 9

type server = { pid : int; socket : string }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let rpc fd payload =
  Server.Frame.write fd payload;
  match Server.Frame.read fd with
  | Some reply -> reply
  | None -> failwith "server closed the connection"

(* Spawn the server and wait for its first pong; the socket lives in
   [dir] under a relative path (well inside the 108-byte limit). *)
let spawn ~exe ~dir =
  let socket = Filename.concat dir "serve.sock" in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log; Unix.close null)
      (fun () ->
        Util.spawn exe
          [| exe; "--serve"; "--socket"; socket; "--cache-models";
             string_of_int pool_size |]
          ~stdin:null ~stdout:log ~stderr:log)
  in
  let deadline = Util.now () +. 30. in
  let rec attach () =
    match connect socket with
    | Some fd -> fd
    | None ->
      if Util.now () > deadline then failwith "server did not come up";
      Unix.sleepf 0.002;
      attach ()
  in
  let fd = attach () in
  let pong = rpc fd {|{"op":"ping"}|} in
  Unix.close fd;
  if not (String.length pong > 0 && Option.is_some (Result.to_option (Json.of_string pong)))
  then failwith "bad ping reply";
  { pid; socket }

(* Graceful stop: the shutdown op drains and exits; reap the child. *)
let stop srv =
  (match connect srv.socket with
  | Some fd ->
    (try ignore (rpc fd {|{"op":"shutdown"}|}) with _ -> ());
    Unix.close fd
  | None -> ());
  ignore (Util.reap srv.pid)

let kill srv =
  (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Util.reap srv.pid)

let vm_hwm_kb pid =
  let status = Util.read_file (Printf.sprintf "/proc/%d/status" pid) in
  List.find_map
    (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id)
    (String.split_on_char '\n' status)
  |> Option.value ~default:0

let request_json ~id (rq : Models.request) =
  Json.to_string
    (Json.Obj
       [
         ("op", Json.Str "check");
         ("id", Json.Str id);
         ("model", Json.Str rq.Models.model.Models.source);
         ( "specs",
           Json.Arr
             (if rq.Models.extra then [ Json.Str (fst (Models.extra_spec rq.Models.model)) ]
              else []) );
         ("options", Json.Obj [ ("traces", Json.Bool rq.Models.traces) ]);
       ])

let ref_key (rq : Models.request) =
  (rq.Models.model.Models.name, rq.Models.extra, rq.Models.traces)

(* The one-shot CLI's bytes and exit code for every (model, extra
   spec, traces) combination, each checked against the verdict
   table. *)
let references ~exe ~dir errs models =
  let out_path = Filename.concat dir "stdout.txt" in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (m : Models.model) ->
      let path = Filename.concat dir (m.Models.name ^ ".smv") in
      Util.write_file path m.Models.source;
      List.iter
        (fun (extra, traces) ->
          let spec = Models.extra_spec m in
          let args =
            (if traces then [] else [ "-q" ])
            @ (if extra then [ "--spec"; fst spec ] else [])
            @ [ path ]
          in
          let inv = Cli.invoke ~exe ~out_path args in
          let expected =
            if extra then m.Models.expected @ [ spec ] else m.Models.expected
          in
          if Cli.check_output errs ~evidence:false { m with Models.expected } inv
          then Util.error errs "%s: reference run failed" m.Models.name;
          Hashtbl.replace tbl (m.Models.name, extra, traces)
            (inv.Cli.stdout, inv.Cli.code))
        [ (false, false); (false, true); (true, false); (true, true) ])
    models;
  tbl

(* What the client observed for one reply. *)
type reply = {
  rtt_ms : float;
  decode_ms : float;
  bytes : int;
  time_ms : float;  (* the server's own check time *)
  warm : bool;
  reach_reused : bool;
  failed : bool;
}

(* Validate a decoded reply against the CLI reference; returns
   whether the operation failed (refused, errored or undetermined). *)
let check_reply errs refs (rq : Models.request) json =
  let field name f = Option.bind (Json.member name json) f in
  if field "status" Json.to_str <> Some "ok" then true
  else begin
    let output = field "output" Json.to_str in
    let code = field "exit_code" Json.to_int in
    let ref_out, ref_code = Hashtbl.find refs (ref_key rq) in
    if output <> Some ref_out || code <> Some ref_code then
      Util.error errs "%s (extra=%b traces=%b): reply differs from the one-shot CLI"
        rq.Models.model.Models.name rq.Models.extra rq.Models.traces;
    code = Some 2 || code = Some 3
  end

(* One pass: the request list over the two connections, closed loop. *)
let run_pass errs refs conns (reqs : Models.request array) =
  let n = Array.length reqs in
  let next = ref 0 and replies = ref [] in
  let pending = Array.make (Array.length conns) None in
  let send i =
    if !next < n then begin
      let k = !next in
      incr next;
      let payload = request_json ~id:(string_of_int k) reqs.(k) in
      pending.(i) <- Some (k, Util.now ());
      Server.Frame.write conns.(i) payload
    end
  in
  Array.iteri (fun i _ -> send i) conns;
  let outstanding () = Array.exists Option.is_some pending in
  while outstanding () do
    let waiting =
      List.filter (fun i -> pending.(i) <> None) (List.init (Array.length conns) Fun.id)
    in
    let ready, _, _ =
      Unix.select (List.map (fun i -> conns.(i)) waiting) [] [] (-1.)
    in
    List.iter
      (fun i ->
        if List.mem conns.(i) ready then begin
          let k, sent = Option.get pending.(i) in
          let t_ready = Util.now () in
          let payload =
            match Server.Frame.read conns.(i) with
            | Some p -> p
            | None -> failwith "server closed a client connection"
          in
          let t_read = Util.now () in
          let decoded = Json.of_string payload in
          let t_decoded = Util.now () in
          pending.(i) <- None;
          let rtt_ms = (t_read -. sent) *. 1000. and bytes = String.length payload in
          let r =
            match decoded with
            | Error e ->
              Util.error errs "%s: unparseable reply: %s" reqs.(k).Models.model.Models.name e;
              { rtt_ms; decode_ms = 0.; bytes; time_ms = 0.; warm = false;
                reach_reused = false; failed = true }
            | Ok json ->
              let flag name =
                Option.value ~default:false (Option.bind (Json.member name json) Json.to_bool)
              in
              {
                rtt_ms;
                decode_ms = (t_decoded -. t_ready) *. 1000.;
                bytes;
                time_ms =
                  Option.value ~default:0.
                    (Option.bind (Json.member "time_ms" json) Json.to_num);
                warm = flag "warm";
                reach_reused = flag "reach_reused";
                failed = check_reply errs refs reqs.(k) json;
              }
          in
          replies := r :: !replies;
          send i
        end)
      waiting
  done;
  List.rev !replies

type client = {
  srv : server;
  conns : Unix.file_descr array;
  refs : (string * bool * bool, string * int) Hashtbl.t;
  models : Models.model list;
  setup_s : float;
  errs : Util.errors;
}

(* Set-up, timed and repeated [setups] times (the median is kept):
   generate the models and spawn the server to its first pong; all
   but the last server are stopped again.  Then, untimed: the CLI
   reference bytes, two client connections, and a warm-up request per
   model. *)
let open_client ~exe ~dir =
  let once () =
    let t0 = Util.now () in
    let models = Models.serve_models () in
    let srv = spawn ~exe ~dir in
    (Util.now () -. t0, models, srv)
  in
  let rec setups_loop k acc =
    let ((_, _, srv) as s) = once () in
    if k = 1 then (s, acc) else (stop srv; setups_loop (k - 1) (s :: acc))
  in
  let ((_, models, srv) as last), earlier = setups_loop setups [] in
  let setup_s = Util.median (List.map (fun (t, _, _) -> t) (last :: earlier)) in
  let errs = Util.new_errors () in
  match
    let refs = references ~exe ~dir errs models in
    let conns =
      Array.init 2 (fun _ ->
          match connect srv.socket with
          | Some fd -> fd
          | None -> failwith "cannot connect to the server")
    in
    let warm =
      Array.of_list
        (List.map (fun model -> { Models.model; extra = false; traces = false }) models)
    in
    ignore (run_pass errs refs conns warm);
    { srv; conns; refs; models; setup_s; errs }
  with
  | s -> s
  | exception e -> kill srv; raise e

let close_client s =
  Array.iter Unix.close s.conns;
  stop s.srv

(* The request sequence of pass [k]: a function of the seed only. *)
let pass_requests ~seed models k =
  let rng = Random.State.make [| seed; k |] in
  Array.of_list (Models.serve_requests rng models requests_per_pass)

(* Run passes while another one fits in [seconds]; the probes run
   between passes, while the server is idle.  Returns every reply, the
   pass durations and the probe times. *)
let measure s ~seed ~seconds =
  let probe_burst () = List.init 6 (fun _ -> Probe.run ()) in
  let rec loop k replies passes probes =
    let reqs = pass_requests ~seed s.models k in
    let t0 = Util.now () in
    let rs = run_pass s.errs s.refs s.conns reqs in
    let passes = (Util.now () -. t0) :: passes in
    let replies = rs @ replies and probes = probe_burst () @ probes in
    if List.fold_left ( +. ) 0. passes +. Util.mean passes <= seconds then
      loop (k + 1) replies passes probes
    else (replies, passes, probes)
  in
  loop 0 [] [] (probe_burst ())

let run ~exe ~dir ~seed ~seconds =
  let s = open_client ~exe ~dir in
  match measure s ~seed ~seconds with
  | exception e -> kill s.srv; raise e
  | replies, passes, probes ->
    let rss_kb = vm_hwm_kb s.srv.pid in
    close_client s;
    let rtts = List.map (fun r -> r.rtt_ms) replies in
    let times = List.map (fun r -> r.time_ms) replies in
    let n = List.length replies in
    let elapsed = List.fold_left ( +. ) 0. passes in
    let measured =
      [
        ("batch_s", Util.median passes, "s");
        ("check_ms_p50", Util.median times, "ms");
        ("check_ms_p90", Util.quantile 0.9 times, "ms");
        ("rtt_ms_p50", Util.median rtts, "ms");
        ("rtt_ms_p90", Util.quantile 0.9 rtts, "ms");
        ("served_per_s", float_of_int n /. elapsed, "1/s");
        ("peak_rss_mb", float_of_int rss_kb /. 1024., "MB");
      ]
    in
    {
      Util.attempted = n;
      failed = List.length (List.filter (fun r -> r.failed) replies);
      metrics = ("setup_s", s.setup_s, "s") :: Util.rescale (Probe.slowdown probes) measured;
      raw = measured @ [ ("probe_ms", Util.median probes *. 1000., "ms") ];
      samples =
        [ ("requests", n); ("passes", List.length passes); ("setups", setups);
          ("probes", List.length probes) ];
      errors = Util.error_list s.errs;
    }
