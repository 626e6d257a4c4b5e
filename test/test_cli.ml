(* End-to-end contract of the smv_check executable: exit codes
   (0 all hold / 1 some fail / 2 resource limit / 3 input error),
   per-spec fault isolation, and flag validation.  The binary is built
   as a dependency and invoked as a subprocess. *)

let exe = Filename.concat (Filename.concat ".." "bin") "smv_check.exe"

let run ?stdin args =
  let cmd = Filename.quote_command exe ?stdin args ^ " 2>&1" in
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

let contains ~needle haystack =
  Astring.String.is_infix ~affix:needle haystack

let model_path name =
  Filename.concat (Filename.concat (Filename.concat ".." "examples") "models")
    name

let temp_model source =
  let path = Filename.temp_file "smv_cli_test" ".smv" in
  let oc = open_out path in
  output_string oc source;
  close_out oc;
  path

let all_true_model =
  "MODULE main\n\
   VAR x : boolean;\n\
   ASSIGN\n\
   \  init(x) := FALSE;\n\
   \  next(x) := x;\n\
   SPEC AG !x\n\
   SPEC EF !x\n"

let test_exit_all_hold () =
  let path = temp_model all_true_model in
  let code, out = run [ path ] in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "both specs true" true
    (contains ~needle:"is true" out && not (contains ~needle:"is false" out))

let test_exit_some_fail () =
  let code, out = run [ model_path "mutex.smv" ] in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "a false verdict is reported" true
    (contains ~needle:"is false" out)

let test_exit_limit_and_isolation () =
  let code, out = run [ model_path "counter26.smv"; "--step-limit"; "50" ] in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "first spec undetermined" true
    (contains ~needle:"UNDETERMINED (step budget of 50 exceeded" out);
  (* fault isolation: the trivial second spec is still decided *)
  Alcotest.(check bool) "second spec still checked" true
    (contains ~needle:"(AG (b0 | !b0)) is true" out)

let test_timeout_trips () =
  let code, out = run [ model_path "counter26.smv"; "--timeout"; "1" ] in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "timeout reported" true
    (contains ~needle:"UNDETERMINED (timeout after" out);
  Alcotest.(check bool) "second spec still checked" true
    (contains ~needle:"(AG (b0 | !b0)) is true" out)

let test_exit_input_errors () =
  let code, _ = run [ "no_such_model.smv" ] in
  Alcotest.(check int) "missing file: exit 3" 3 code;
  let bad = temp_model "MODULE main\nVAR x (\n" in
  let code, _ = run [ bad ] in
  Sys.remove bad;
  Alcotest.(check int) "syntax error: exit 3" 3 code;
  let path = temp_model all_true_model in
  let code, out = run [ path; "--simulate"; "0" ] in
  let code2, out2 = run [ path; "--timeout"; "0" ] in
  let code3, _ = run [ path; "--node-limit"; "0" ] in
  Sys.remove path;
  Alcotest.(check int) "--simulate 0: exit 3" 3 code;
  Alcotest.(check bool) "--simulate message" true
    (contains ~needle:"STEPS must be positive" out);
  Alcotest.(check int) "--timeout 0: exit 3" 3 code2;
  Alcotest.(check bool) "--timeout message" true
    (contains ~needle:"SECS must be positive" out2);
  Alcotest.(check int) "--node-limit 0: exit 3" 3 code3;
  (* A flag value cmdliner cannot parse, a removed enum value and a
     removed flag are input errors too, not cmdliner's own exit code. *)
  List.iter
    (fun flags ->
      let code, _ = run (flags @ [ model_path "mutex.smv" ]) in
      Alcotest.(check int) (String.concat " " flags ^ ": exit 3") 3 code)
    [ [ "--timeout"; "abc" ]; [ "--reorder"; "once" ]; [ "--partitioned" ] ]

let test_recovery_flags_validated () =
  let path = temp_model all_true_model in
  (* the = form: a bare "-1" would be eaten by cmdliner's own option
     parsing before our validation sees it *)
  let code, out = run [ path; "--retries=-1" ] in
  Alcotest.(check int) "--retries -1: exit 3" 3 code;
  Alcotest.(check bool) "--retries message" true
    (contains ~needle:"N must be >= 0" out);
  let code, out = run [ path; "--retry-budget-factor"; "0.5" ] in
  Alcotest.(check int) "--retry-budget-factor 0.5: exit 3" 3 code;
  Alcotest.(check bool) "factor message" true
    (contains ~needle:"F must be >= 1.0" out);
  let code, _ = run [ path; "--inject"; "bogus" ] in
  Alcotest.(check int) "--inject without a colon: exit 3" 3 code;
  let code, out = run [ path; "--inject"; "quantum:3" ] in
  Alcotest.(check int) "--inject unknown site: exit 3" 3 code;
  Alcotest.(check bool) "unknown-site message" true
    (contains ~needle:"unknown site" out);
  let code, _ = run [ path; "--inject"; "mk:0" ] in
  Alcotest.(check int) "--inject zero count: exit 3" 3 code;
  let code, out = run [ path; "--inject"; "worker:1" ] in
  Alcotest.(check int) "--inject worker without --jobs: exit 3" 3 code;
  Alcotest.(check bool) "worker-inject message" true
    (contains ~needle:"requires a parallel run" out);
  (* --jobs 0 means one worker per core: a parallel run exactly when
     the host has two or more. *)
  let code, _ = run [ path; "--jobs"; "0"; "--inject"; "worker:1" ] in
  Alcotest.(check int) "--inject worker with --jobs 0"
    (if Parallel.default_jobs () >= 2 then 2 else 3)
    code;
  Sys.remove path

(* --retries must decide the budget-starved counter12 spec that the
   plain path leaves UNDETERMINED, annotate the recovery, certify the
   trace, and exit 0; --retries 0 keeps the old contract. *)
let test_retries_recover_starved_spec () =
  let code, out =
    run [ model_path "counter12.smv"; "--step-limit"; "3"; "-q" ]
  in
  Alcotest.(check int) "flat-fail exits 2" 2 code;
  Alcotest.(check bool) "flat-fail is UNDETERMINED" true
    (contains ~needle:"UNDETERMINED (step budget" out);
  let code, out =
    run
      [ model_path "counter12.smv"; "--step-limit"; "3"; "--retries"; "2";
        "-q" ]
  in
  Alcotest.(check int) "recovered run exits 0" 0 code;
  Alcotest.(check bool) "recovery annotated" true
    (contains ~needle:"(recovered: attempt" out);
  Alcotest.(check bool) "recovered trace certified" true
    (contains ~needle:"certificate: trace independently validated" out)

(* The degraded rung runs on the model's own clustered schedule with
   tight caches: under a 3000-node budget the 7-philosopher deadlock
   EF is decided there, after the direct, gc-retry and reorder
   attempts trip the budget. *)
let test_degraded_rung_decides () =
  let n = 7 in
  let path =
    temp_model
      (Workloads.philosophers_smv n
      ^ Printf.sprintf "SPEC EF (%s)\n"
          (String.concat " & "
             (List.init n (Printf.sprintf "p%d.st = left"))))
  in
  let code, out =
    run [ path; "-q"; "--retries"; "4"; "--node-limit"; "3000" ]
  in
  Sys.remove path;
  Alcotest.(check int) "decided run exits 0" 0 code;
  Alcotest.(check bool) "decided on the degraded rung" true
    (contains ~needle:"is true (recovered: attempt 4 via degraded)" out);
  Alcotest.(check bool) "recovered trace certified" true
    (contains ~needle:"certificate: trace independently validated" out)

(* --certify on a clean run: every emitted trace re-validates, the
   exit code is unchanged. *)
let test_certify_clean_run () =
  let code, out = run [ model_path "mutex.smv"; "--certify" ] in
  Alcotest.(check int) "certified mutex still exits 1" 1 code;
  Alcotest.(check bool) "counterexample certified" true
    (contains ~needle:"certificate: trace independently validated" out);
  Alcotest.(check bool) "no certification failure" true
    (not (contains ~needle:"CERTIFICATION FAILED" out))

let test_inject_contained_and_recovered () =
  (* Without retries the injected fault surfaces as UNDETERMINED. *)
  let code, out =
    run [ model_path "mutex.smv"; "--inject"; "mk:20"; "-q" ]
  in
  Alcotest.(check int) "unladdered fault exits 2" 2 code;
  Alcotest.(check bool) "fault reported as internal" true
    (contains ~needle:"UNDETERMINED (internal error" out);
  (* With retries the same run recovers to the fault-free exit code. *)
  let code, out =
    run
      [ model_path "mutex.smv"; "--inject"; "mk:20"; "--retries"; "1"; "-q" ]
  in
  Alcotest.(check int) "recovered fault exits 1" 1 code;
  Alcotest.(check bool) "no undetermined left" true
    (not (contains ~needle:"UNDETERMINED" out))

(* --serve applies server flags only: a flag it would drop or clamp
   is an input error naming that flag. *)
let test_serve_refuses_flags () =
  List.iter
    (fun (args, flag) ->
      let what = String.concat " " args in
      let code, out = run ~stdin:"/dev/null" ("--serve" :: args) in
      Alcotest.(check int) (what ^ ": exit 3") 3 code;
      Alcotest.(check bool) (what ^ ": message names " ^ flag) true
        (contains ~needle:flag out))
    [
      ([ "--jobs=-3" ], "--jobs");
      ([ "--inject"; "mk:5" ], "--inject");
      ([ "--inject"; "child-crash:abc" ], "--inject");
      ([ "--timeout"; "0.001"; "--certify" ], "--timeout");
      ([ "--spec"; "AG TRUE" ], "--spec");
      ([ "--simulate"; "3" ], "--simulate");
      ([ "--cache-limit"; "10" ], "--cache-limit");
      ([ "--seed"; "7" ], "--seed");
    ];
  (* --seed has no request key: it is not listed as a per-check flag. *)
  let _, out = run ~stdin:"/dev/null" [ "--serve"; "--seed"; "7"; "--certify" ] in
  Alcotest.(check bool) "per-check flags listed" true
    (contains ~needle:"options: --certify" out);
  Alcotest.(check bool) "--seed not listed as per-check" false
    (contains ~needle:"--seed" out)

let test_simulate_runs () =
  let path = temp_model all_true_model in
  let code, out = run [ path; "--simulate"; "4"; "--seed"; "7"; "-q" ] in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "simulation printed" true
    (contains ~needle:"random simulation (4 steps, seed 7)" out)

let suite =
  [
    Alcotest.test_case "exit 0 when all specifications hold" `Quick
      test_exit_all_hold;
    Alcotest.test_case "exit 1 when a specification fails" `Quick
      test_exit_some_fail;
    Alcotest.test_case "exit 2 + isolation on a step budget" `Quick
      test_exit_limit_and_isolation;
    Alcotest.test_case "exit 2 + isolation on --timeout" `Slow
      test_timeout_trips;
    Alcotest.test_case "exit 3 on input errors" `Quick
      test_exit_input_errors;
    Alcotest.test_case "recovery flags validated" `Quick
      test_recovery_flags_validated;
    Alcotest.test_case "--retries decides on the degraded rung" `Quick
      test_degraded_rung_decides;
    Alcotest.test_case "--retries recovers a starved spec" `Slow
      test_retries_recover_starved_spec;
    Alcotest.test_case "--certify on a clean run" `Quick
      test_certify_clean_run;
    Alcotest.test_case "--inject contained and recovered" `Quick
      test_inject_contained_and_recovered;
    Alcotest.test_case "--simulate walks symbolically" `Quick
      test_simulate_runs;
    Alcotest.test_case "--serve refuses flags it would not apply" `Quick
      test_serve_refuses_flags;
  ]
