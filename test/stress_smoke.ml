(* Overload-protection smoke test for --serve, run via
   `dune build @stress-smoke` (wired into the default `dune runtest`):

   - flood: 200 concurrent checks against a 2-worker server with
     --max-pending 8 get exactly 200 replies — a mix of real check
     replies and structured 'overloaded' sheds carrying retry_after_ms
     — and none are lost;
   - a status probe on a second connection answers promptly while the
     flood is in full swing (it is handled inline by the reader, never
     queued behind checks);
   - SIGTERM mid-flood still drains: every admitted request replies
     and the server exits 0;
   - a path occupied by a regular file refuses to serve (exit 3) and
     the file survives;
   - duplicate in-flight ids and per-connection in-flight caps are
     refused with structured replies;
   - server-side default budgets apply to budget-less requests and
     request budgets still win;
   - the memory watchdog evicts idle warm models past --mem-high-water
     and counts it in the status reply.

   Like serve_smoke, this links the server library for Frame/Json —
   under test is the *process* behaviour. *)

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
      (Array.of_list (exe :: "--serve" :: args))
      stdin_r stdout_w Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  { pid; to_server = stdin_w; from_server = stdout_r }

let send srv obj =
  try Frame.write srv.to_server (Json.to_string obj)
  with Frame.Closed -> ()

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

let check_req ?(options = []) ~id model_src =
  Json.Obj
    ([
       ("op", Json.Str "check");
       ("id", Json.Str id);
       ("model", Json.Str model_src);
     ]
    @ if options = [] then [] else [ ("options", Json.Obj options) ])

(* ------------------------------------------------------------------ *)
(* 1. Flood past --max-pending: every frame gets exactly one reply,
   and a status probe on a second connection answers mid-flood. *)

let spawn_socket_server args =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "stress_smoke_%d.sock" (Unix.getpid ()))
  in
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      (Array.of_list ((exe :: "--serve" :: "--socket" :: path :: args)))
      null_in null_out Unix.stderr
  in
  Unix.close null_in;
  Unix.close null_out;
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
  (pid, path, connect)

let test_flood_and_status () =
  let flood_n = 200 in
  let pid, _path, connect =
    spawn_socket_server [ "--jobs"; "2"; "--max-pending"; "8" ]
  in
  let flood_fd = connect 50 in
  let probe_fd = connect 50 in
  let flood = { pid; to_server = flood_fd; from_server = flood_fd } in
  let probe = { pid; to_server = probe_fd; from_server = probe_fd } in
  let src = read_file (model_path "mutex.smv") in
  let ids = List.init flood_n (Printf.sprintf "flood-%d") in
  (* Write from a separate thread: 200 frames can exceed the socket
     buffer while the server is busy replying, and a single thread
     doing both would deadlock against it. *)
  let writer =
    Thread.create
      (fun () -> List.iter (fun id -> send flood (check_req ~id src)) ids)
      ()
  in
  (* Mid-flood health probe on its own connection. *)
  Unix.sleepf 0.05;
  let t0 = Unix.gettimeofday () in
  send probe (Json.Obj [ ("op", Json.Str "status") ]);
  let status = recv probe in
  let probe_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (match status with
  | Some v ->
    expect
      (Printf.sprintf "status probe answers mid-flood (%.1f ms)" probe_ms)
      (probe_ms < 1000.);
    expect "status probe reports ok" (str "status" v = Some "ok");
    expect "status probe reports the worker count" (num "workers" v = Some 2.);
    expect "status probe reports max_pending" (num "max_pending" v = Some 8.)
  | None -> expect "status probe answers mid-flood" false);
  (* Exactly one reply per flood frame, in whatever order. *)
  let pending = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace pending id ()) ids;
  let oks = ref 0 and sheds = ref 0 and bad = ref 0 in
  let rec collect () =
    if Hashtbl.length pending > 0 then
      match recv flood with
      | None -> failwith "server closed the stream with replies pending"
      | Some v ->
        (match str "id" v with
        | Some id when Hashtbl.mem pending id -> (
          Hashtbl.remove pending id;
          match str "status" v with
          | Some "ok" -> incr oks
          | Some "overloaded" ->
            incr sheds;
            let retry = num "retry_after_ms" v in
            if
              not
                (str "reason" v = Some "queue"
                && (match retry with Some r -> r >= 1. | None -> false)
                && num "queue_depth" v <> None)
            then incr bad
          | _ -> incr bad)
        | _ -> ());
        collect ()
  in
  collect ();
  Thread.join writer;
  expect
    (Printf.sprintf "all %d flood frames answered (%d ok, %d shed)" flood_n
       !oks !sheds)
    (!oks + !sheds = flood_n);
  expect "some checks were served" (!oks >= 1);
  expect "some checks were shed" (!sheds >= 1);
  expect "every shed reply carries reason/queue_depth/retry_after_ms"
    (!bad = 0);
  (* The final status must account for the sheds we counted. *)
  send probe (Json.Obj [ ("op", Json.Str "status") ]);
  (match recv probe with
  | Some v -> (
    match Json.member "counters" v with
    | Some c ->
      expect "status counters match observed sheds"
        (Option.bind (Json.member "shed_queue" c) Json.to_num
        = Some (float_of_int !sheds))
    | None -> expect "status reply has counters" false)
  | None -> expect "status probe answers post-flood" false);
  send probe (Json.Obj [ ("op", Json.Str "shutdown") ]);
  (try Unix.close probe_fd with Unix.Unix_error _ -> ());
  expect "server exits 0 after the flood" (wait_exit flood = 0)

(* ------------------------------------------------------------------ *)
(* 2. SIGTERM mid-flood drains: every reply that comes back is
   well-formed and the exit is clean. *)

let test_sigterm_mid_flood () =
  let srv = spawn_server [ "--jobs"; "1"; "--max-pending"; "4" ] in
  let src = read_file (model_path "mutex.smv") in
  let ids = List.init 50 (Printf.sprintf "term-%d") in
  let writer =
    Thread.create
      (fun () -> List.iter (fun id -> send srv (check_req ~id src)) ids)
      ()
  in
  Unix.sleepf 0.1;
  Unix.kill srv.pid Sys.sigterm;
  Thread.join writer;
  let replies = ref 0 and bad = ref 0 in
  let rec drain () =
    match recv srv with
    | Some v ->
      incr replies;
      (match (str "id" v, str "status" v) with
      | Some id, Some ("ok" | "overloaded") when List.mem id ids -> ()
      | _ -> incr bad);
      drain ()
    | None -> ()
    | exception _ -> ()
  in
  drain ();
  expect
    (Printf.sprintf "replies before the drain are well-formed (%d received)"
       !replies)
    (!replies >= 1 && !bad = 0);
  expect "SIGTERM mid-flood drains to exit 0" (wait_exit srv = 0)

(* ------------------------------------------------------------------ *)
(* 3. A non-socket file at the socket path refuses to serve. *)

let test_stale_path_refused () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "stress_smoke_file_%d" (Unix.getpid ()))
  in
  let oc = open_out path in
  output_string oc "precious user data\n";
  close_out oc;
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "--serve"; "--socket"; path |]
      null_in null_out Unix.stderr
  in
  Unix.close null_in;
  Unix.close null_out;
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED n -> n
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> 128 + n
  in
  expect "non-socket path refused with exit 3" (code = 3);
  expect "the file was not replaced"
    (Sys.file_exists path && read_file path = "precious user data\n");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* 4. Duplicate ids and the per-connection in-flight cap.  Each first
   check runs counter26, which cannot finish by itself (its first spec
   needs 2^26 iterations), so the second frame always meets it in
   flight; once that reply is in, the [cancel] op ends the first check
   and its reply comes back.  Cancel acknowledgements are skipped. *)

let test_duplicate_and_inflight_cap () =
  let srv = spawn_server [ "--jobs"; "2"; "--max-inflight"; "1" ] in
  let src = read_file (model_path "counter26.smv") in
  let cancel id =
    send srv (Json.Obj [ ("op", Json.Str "cancel"); ("id", Json.Str id) ])
  in
  (* The next [n] replies other than cancel acknowledgements. *)
  let recv_replies n =
    let rec go acc n =
      if n = 0 then List.rev acc
      else
        match recv srv with
        | Some v when str "op" v = Some "cancel" -> go acc n
        | Some v -> go (v :: acc) (n - 1)
        | None -> List.rev acc
    in
    go [] n
  in
  (* Two frames with one id, sent back to back: the second must be
     refused while the first is still in flight. *)
  send srv (check_req ~id:"dup" src);
  send srv (check_req ~id:"dup" src);
  let refusal = recv_replies 1 in
  cancel "dup";
  let statuses = ref [] in
  List.iter
    (fun v ->
      if str "id" v = Some "dup" then
        statuses := Option.get (str "status" v) :: !statuses)
    (refusal @ recv_replies 1);
  expect "duplicate id: one check reply and one structured error"
    (List.sort compare !statuses = [ "error"; "ok" ]);
  (* With --max-inflight 1, a second concurrent check on the same
     connection sheds with reason 'inflight'. *)
  send srv (check_req ~id:"cap-a" src);
  send srv (check_req ~id:"cap-b" src);
  let shed = recv_replies 1 in
  cancel "cap-a";
  let got = Hashtbl.create 4 in
  List.iter
    (fun v ->
      match str "id" v with
      | Some id -> Hashtbl.replace got id v
      | None -> ())
    (shed @ recv_replies 1);
  (match (Hashtbl.find_opt got "cap-a", Hashtbl.find_opt got "cap-b") with
  | Some a, Some b ->
    expect "first check under the cap is served" (str "status" a = Some "ok");
    expect "second check sheds with reason inflight"
      (str "status" b = Some "overloaded" && str "reason" b = Some "inflight")
  | _ -> expect "both capped checks answered" false);
  send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
  expect "server exits 0 after cap tests" (wait_exit srv = 0)

(* ------------------------------------------------------------------ *)
(* 5. Server-side default budgets: applied when the request names
   none, overridden when it does. *)

let test_default_budgets () =
  let srv = spawn_server [ "--jobs"; "1"; "--default-node-limit"; "10" ] in
  let src = read_file (model_path "mutex.smv") in
  send srv (check_req ~id:"briefless" src);
  (match recv srv with
  | Some v ->
    expect "budget-less request gets the server's node limit (exit 2)"
      (str "status" v = Some "ok" && num "exit_code" v = Some 2.)
  | None -> expect "budget-less request answered" false);
  send srv
    (check_req ~id:"generous" src
       ~options:[ ("node_limit", Json.Num 10_000_000.) ]);
  (match recv srv with
  | Some v ->
    (* mutex.smv has one failing spec: a run the budget did not trip
       exits 1, never 2. *)
    expect "request's own budget wins over the default (exit 1)"
      (str "status" v = Some "ok" && num "exit_code" v = Some 1.)
  | None -> expect "budgeted request answered" false);
  send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
  expect "server exits 0 after budget tests" (wait_exit srv = 0)

(* ------------------------------------------------------------------ *)
(* 6. The memory watchdog evicts idle warm models past the high-water
   mark, counts it, and the model comes back cold. *)

let test_watchdog_eviction () =
  (* High water of one node: any warm model is over it, so the first
     idle tick must evict. *)
  let srv = spawn_server [ "--jobs"; "1"; "--mem-high-water"; "1" ] in
  let src = read_file (model_path "mutex.smv") in
  send srv (check_req ~id:"first" src);
  (match recv srv with
  | Some v -> expect "first check served" (str "status" v = Some "ok")
  | None -> expect "first check served" false);
  (* Two watchdog periods with the entry idle. *)
  Unix.sleepf 0.6;
  send srv (check_req ~id:"second" src);
  (match recv srv with
  | Some v ->
    expect "model evicted under pressure comes back cold"
      (str "status" v = Some "ok"
      && Option.bind (Json.member "warm" v) Json.to_bool = Some false)
  | None -> expect "second check served" false);
  send srv (Json.Obj [ ("op", Json.Str "status") ]);
  (match recv srv with
  | Some v -> (
    expect "status reports the high-water mark"
      (num "mem_high_water" v = Some 1.);
    match Json.member "counters" v with
    | Some c ->
      expect "watchdog evictions counted"
        (match Option.bind (Json.member "watchdog_evictions" c) Json.to_num with
        | Some n -> n >= 1.
        | None -> false)
    | None -> expect "status reply has counters" false)
  | None -> expect "status answered after watchdog activity" false);
  send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
  expect "server exits 0 after watchdog test" (wait_exit srv = 0)

let () =
  (* A stuck server must fail the alias, not hang CI. *)
  ignore (Unix.alarm 300);
  (* A server that exits mid-test must surface as a failed expectation,
     not kill this process on a pipe write. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  test_flood_and_status ();
  test_sigterm_mid_flood ();
  test_stale_path_refused ();
  test_duplicate_and_inflight_cap ();
  test_default_budgets ();
  test_watchdog_eviction ();
  if !failures > 0 then begin
    Printf.printf "%d deviation(s) from the overload contract\n%!" !failures;
    exit 1
  end
