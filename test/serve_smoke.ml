(* End-to-end smoke test for --serve, run via `dune build @serve-smoke`
   (wired into the default `dune runtest`):

   - byte-identity: N concurrent check requests answer with exactly the
     verdict/trace text and exit code of N one-shot CLI runs;
   - warm reuse: the second request for a model reports warm = true and
     reach_reused = true, and allocates almost no new BDD nodes;
   - chaos isolation: a request with an injected fault is answered
     UNDETERMINED, matches the one-shot CLI's --inject output byte for
     byte, and perturbs neither concurrent requests nor later warm
     checks of the same model — and the server survives;
   - protocol robustness: garbage frames get error replies, the
     connection stays usable;
   - drain: SIGINT while a request is in flight still yields that
     request's reply and a clean exit 0;
   - socket mode: the same loop served over a Unix-domain socket.

   The test links the server library for its Frame/Json modules — the
   same code the server uses, which is fine because what is under test
   here is the *process* behaviour, not the codec. *)

module Json = Server.Json
module Frame = Server.Frame

let exe = Filename.concat (Filename.concat ".." "bin") "smv_check.exe"

let model_path name =
  Filename.concat (Filename.concat (Filename.concat ".." "examples") "models")
    name

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let failures = ref 0

let expect what cond =
  if cond then Printf.printf "ok: %s\n%!" what
  else begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" what
  end

(* Run the one-shot CLI, capturing stdout only (stderr untouched: the
   server's output field carries stdout bytes). *)
let run_cli args =
  let cmd = Filename.quote_command exe args in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
  in
  (code, Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* A server subprocess over stdio pipes *)

type server = {
  pid : int;
  to_server : Unix.file_descr;
  from_server : Unix.file_descr;
}

let spawn_server args =
  let stdin_r, stdin_w = Unix.pipe ~cloexec:false () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process exe
      (Array.of_list ((exe :: "--serve" :: args)))
      stdin_r stdout_w Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  { pid; to_server = stdin_w; from_server = stdout_r }

let send srv obj = Frame.write srv.to_server (Json.to_string obj)

let recv srv =
  match Frame.read srv.from_server with
  | None -> None
  | Some payload -> (
    match Json.of_string payload with
    | Ok v -> Some v
    | Error e -> failwith ("server sent bad JSON: " ^ e))

let wait_exit srv =
  (try Unix.close srv.to_server with Unix.Unix_error _ -> ());
  (try Unix.close srv.from_server with Unix.Unix_error _ -> ());
  match Unix.waitpid [] srv.pid with
  | _, Unix.WEXITED n -> n
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> 128 + n

let str k v = Option.bind (Json.member k v) Json.to_str
let num k v = Option.bind (Json.member k v) Json.to_num
let boolean k v = Option.bind (Json.member k v) Json.to_bool

let check_req ?(options = []) ~id model_src =
  Json.Obj
    ([
       ("op", Json.Str "check");
       ("id", Json.Str id);
       ("model", Json.Str model_src);
     ]
    @ if options = [] then [] else [ ("options", Json.Obj options) ])

(* Read replies until every id in [ids] has answered (replies arrive
   in completion order, not request order). *)
let collect_replies srv ids =
  let pending = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace pending id ()) ids;
  let replies = Hashtbl.create 8 in
  let rec go () =
    if Hashtbl.length pending > 0 then
      match recv srv with
      | None -> failwith "server closed the stream with replies pending"
      | Some v ->
        (match str "id" v with
        | Some id when Hashtbl.mem pending id ->
          Hashtbl.remove pending id;
          Hashtbl.replace replies id v
        | _ -> ());
        go ()
  in
  go ();
  fun id -> Hashtbl.find replies id

(* ------------------------------------------------------------------ *)
(* 1. Byte-identity of concurrent requests + warm reuse *)

let test_identity_and_warmth () =
  let models = [ "mutex.smv"; "philosophers.smv"; "ring.smv" ] in
  let oneshot =
    List.map (fun m -> (m, run_cli [ model_path m ])) models
  in
  let srv = spawn_server [ "--jobs"; "2" ] in
  (* Two requests per model: the first is cold, the second warm.  All
     six are in flight together, exercising concurrent scheduling. *)
  let reqs =
    List.concat_map
      (fun m ->
        let src = read_file (model_path m) in
        [
          (m ^ ":cold", check_req ~id:(m ^ ":cold") src
             ~options:[ ("stats", Json.Bool true) ]);
          (m ^ ":warm", check_req ~id:(m ^ ":warm") src
             ~options:[ ("stats", Json.Bool true) ]);
        ])
      models
  in
  List.iter (fun (_, r) -> send srv r) reqs;
  let reply = collect_replies srv (List.map fst reqs) in
  List.iter
    (fun m ->
      let code, out = List.assoc m oneshot in
      List.iter
        (fun phase ->
          let v = reply (m ^ ":" ^ phase) in
          expect
            (Printf.sprintf "%s (%s): status ok" m phase)
            (str "status" v = Some "ok");
          expect
            (Printf.sprintf "%s (%s): output byte-identical to one-shot" m
               phase)
            (str "output" v = Some out);
          expect
            (Printf.sprintf "%s (%s): exit code matches one-shot" m phase)
            (num "exit_code" v = Some (float_of_int code)))
        [ "cold"; "warm" ];
      let cold = reply (m ^ ":cold") and warm = reply (m ^ ":warm") in
      expect (m ^ ": first request is cold") (boolean "warm" cold = Some false);
      expect (m ^ ": second request is warm") (boolean "warm" warm = Some true);
      expect
        (m ^ ": warm request reuses the memoised reachable set")
        (boolean "reach_reused" warm = Some true);
      let allocated v =
        Option.bind (Json.member "stats" v) (fun s ->
            Option.bind (Json.member "total_nodes" s) Json.to_num)
      in
      match (allocated cold, allocated warm) with
      | Some c, Some w ->
        expect
          (Printf.sprintf
             "%s: warm request allocates fewer nodes (%.0f < %.0f)" m w c)
          (w < c)
      | _ -> expect (m ^ ": per-request stats present") false)
    models;
  send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
  expect "server exits 0 after shutdown op" (wait_exit srv = 0)

(* ------------------------------------------------------------------ *)
(* 2. Chaos isolation *)

let test_chaos_isolation () =
  let mutex = read_file (model_path "mutex.smv") in
  let phil = read_file (model_path "philosophers.smv") in
  let cli_clean_code, cli_clean_out = run_cli [ model_path "mutex.smv" ] in
  let cli_fault_code, cli_fault_out =
    run_cli [ "--inject"; "step:1"; model_path "mutex.smv" ]
  in
  let _, cli_phil_out = run_cli [ model_path "philosophers.smv" ] in
  let srv = spawn_server [ "--jobs"; "2" ] in
  send srv
    (check_req ~id:"faulty" mutex
       ~options:[ ("inject", Json.Str "step:1") ]);
  send srv (check_req ~id:"bystander" phil);
  let reply = collect_replies srv [ "faulty"; "bystander" ] in
  let faulty = reply "faulty" in
  expect "fault request answered, not crashed"
    (str "status" faulty = Some "ok");
  expect "fault request is UNDETERMINED (exit 2)"
    (num "exit_code" faulty = Some (float_of_int cli_fault_code));
  expect "fault request output matches one-shot --inject run"
    (str "output" faulty = Some cli_fault_out);
  expect "concurrent clean request unperturbed"
    (str "output" (reply "bystander") = Some cli_phil_out);
  (* The faulted entry stays clean: a follow-up warm check of the same
     model must match a fault-free one-shot run exactly. *)
  send srv (check_req ~id:"after" mutex);
  let reply2 = collect_replies srv [ "after" ] in
  let after = reply2 "after" in
  expect "warm check after a fault is byte-identical to clean one-shot"
    (str "output" after = Some cli_clean_out
    && num "exit_code" after = Some (float_of_int cli_clean_code));
  expect "and it is warm" (boolean "warm" after = Some true);
  (* Server is still alive and polite. *)
  send srv (Json.Obj [ ("op", Json.Str "ping") ]);
  (match recv srv with
  | Some v -> expect "server still answers ping" (str "op" v = Some "pong")
  | None -> expect "server still answers ping" false);
  send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
  expect "server exits 0 after chaos" (wait_exit srv = 0)

(* ------------------------------------------------------------------ *)
(* 2b. Option parity: each per-check CLI flag and its request key give
   the same bytes.  One cold server per row, so no row inherits another
   row's warm manager.  [stats] is left out: its server form is the
   reply's stats object, not output text. *)

let parity_rows =
  let num n = Json.Num (float_of_int n) in
  [
    ("flagless", [], []);
    ("fair", [ "--no-fairness" ], [ ("fair", Json.Bool false) ]);
    ("traces", [ "-q" ], [ ("traces", Json.Bool false) ]);
    ("certify", [ "--certify" ], [ ("certify", Json.Bool true) ]);
    ("partitioned", [ "--partitioned" ], [ ("partitioned", Json.Bool true) ]);
    ( "retries",
      [ "--step-limit"; "3"; "--retries"; "2"; "--retry-budget-factor"; "4" ],
      [ ("step_limit", num 3); ("retries", num 2); ("retry_factor", num 4) ] );
    ("step_limit", [ "--step-limit"; "3" ], [ ("step_limit", num 3) ]);
    ("node_limit", [ "--node-limit"; "200" ], [ ("node_limit", num 200) ]);
    ( "reorder",
      [ "--reorder"; "auto"; "--reorder-threshold"; "50" ],
      [ ("reorder", Json.Str "auto"); ("reorder_threshold", num 50) ] );
    ("inject", [ "--inject"; "mk:20" ], [ ("inject", Json.Str "mk:20") ]);
  ]

let test_option_parity () =
  let path = model_path "ring.smv" in
  let src = read_file path in
  List.iter
    (fun (name, flags, options) ->
      let code, out = run_cli (flags @ [ path ]) in
      let srv = spawn_server [] in
      send srv (check_req ~id:name ~options src);
      let v = collect_replies srv [ name ] name in
      expect
        (Printf.sprintf "parity %s: output byte-identical to one-shot" name)
        (str "output" v = Some out);
      expect
        (Printf.sprintf "parity %s: exit code matches one-shot" name)
        (num "exit_code" v = Some (float_of_int code));
      send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
      expect
        (Printf.sprintf "parity %s: server exits 0" name)
        (wait_exit srv = 0))
    parity_rows

(* ------------------------------------------------------------------ *)
(* 3. Protocol robustness *)

let test_protocol_errors () =
  let srv = spawn_server [] in
  Frame.write srv.to_server "this is not json";
  (match recv srv with
  | Some v ->
    expect "garbage frame gets an error reply"
      (str "status" v = Some "error")
  | None -> expect "garbage frame gets an error reply" false);
  send srv (Json.Obj [ ("op", Json.Str "launch-missiles") ]);
  (match recv srv with
  | Some v ->
    expect "unknown op gets an error reply" (str "status" v = Some "error")
  | None -> expect "unknown op gets an error reply" false);
  (* A check with an invalid model: an error reply carrying the id. *)
  send srv (check_req ~id:"bad" "MODULE main\nVAR oops");
  (match recv srv with
  | Some v ->
    expect "compile error becomes an error reply with the id"
      (str "status" v = Some "error" && str "id" v = Some "bad")
  | None -> expect "compile error becomes an error reply with the id" false);
  (* Still fully functional afterwards. *)
  send srv (check_req ~id:"ok" (read_file (model_path "mutex.smv")));
  (match recv srv with
  | Some v ->
    expect "connection survives all of the above"
      (str "status" v = Some "ok")
  | None -> expect "connection survives all of the above" false);
  send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
  expect "server exits 0" (wait_exit srv = 0)

(* ------------------------------------------------------------------ *)
(* 4. SIGINT drains in-flight work *)

let test_sigint_drain () =
  let srv = spawn_server [] in
  send srv (check_req ~id:"inflight" (read_file (model_path "ring.smv")));
  (* Let the worker pick the request up, then interrupt the server. *)
  Unix.sleepf 0.15;
  Unix.kill srv.pid Sys.sigint;
  let rec drain got =
    match recv srv with
    | Some v -> drain (if str "id" v = Some "inflight" then Some v else got)
    | None -> got
    | exception _ -> got
  in
  (match drain None with
  | Some v ->
    expect "in-flight request still answered after SIGINT"
      (str "status" v = Some "ok")
  | None -> expect "in-flight request still answered after SIGINT" false);
  expect "SIGINT drains to exit 0" (wait_exit srv = 0)

(* ------------------------------------------------------------------ *)
(* 5. Socket mode *)

let test_socket_mode () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve_smoke_%d.sock" (Unix.getpid ()))
  in
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "--serve"; "--socket"; path |]
      null_in null_out Unix.stderr
  in
  Unix.close null_in;
  Unix.close null_out;
  (* Wait for the socket to appear. *)
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if tries = 0 then failwith "socket never came up"
      else begin
        Unix.sleepf 0.1;
        connect (tries - 1)
      end
  in
  let fd = connect 50 in
  let srv = { pid; to_server = fd; from_server = fd } in
  let _, cli_out = run_cli [ model_path "mutex.smv" ] in
  send srv (check_req ~id:"s1" (read_file (model_path "mutex.smv")));
  (match recv srv with
  | Some v ->
    expect "socket check answers with identical output"
      (str "output" v = Some cli_out)
  | None -> expect "socket check answers with identical output" false);
  send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
  (match recv srv with
  | Some v ->
    expect "socket shutdown acknowledged" (str "op" v = Some "shutdown")
  | None -> expect "socket shutdown acknowledged" false);
  expect "socket server exits 0" (wait_exit srv = 0);
  expect "socket file removed on exit" (not (Sys.file_exists path))

let () =
  (* A stuck server must fail the alias, not hang CI. *)
  ignore (Unix.alarm 300);
  test_identity_and_warmth ();
  test_chaos_isolation ();
  test_option_parity ();
  test_protocol_errors ();
  test_sigint_drain ();
  test_socket_mode ();
  if !failures > 0 then begin
    Printf.printf "%d deviation(s) from the --serve contract\n%!" !failures;
    exit 1
  end
