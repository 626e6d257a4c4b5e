(* Smoke test for the resource-governance exit-code contract, run via
   `dune build @limits-smoke`: two budget-trip cases (exit 2, both the
   UNDETERMINED report and the isolated second verdict present; one of
   them trips the --stats reachability first) and one pass case (exit 1
   on mutex.smv: a false spec, nothing undetermined).  Any deviation
   fails the alias. *)

let exe = Filename.concat (Filename.concat ".." "bin") "smv_check.exe"

(* With [watchdog] the checker is killed after that many seconds, so a
   run that ignores its budget fails the alias instead of hanging it
   ([exec] makes the shell's pid the checker's). *)
let run ?watchdog args =
  let cmd = "exec " ^ Filename.quote_command exe args ^ " 2>&1" in
  let ic = Unix.open_process_in cmd in
  Option.iter
    (fun secs ->
      let pid = Unix.process_in_pid ic in
      Sys.set_signal Sys.sigalrm
        (Sys.Signal_handle (fun _ -> Unix.kill pid Sys.sigkill));
      ignore (Unix.alarm secs))
    watchdog;
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  ignore (Unix.alarm 0);
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
  in
  (code, Buffer.contents buf)

let failures = ref 0

let expect what cond =
  if cond then Printf.printf "ok: %s\n%!" what
  else begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" what
  end

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let model name =
  Filename.concat (Filename.concat (Filename.concat ".." "examples") "models")
    name

let () =
  (* Trip case: the engineered counter exhausts a step budget on its
     first spec; the trivial second spec must still be decided. *)
  let code, out = run [ model "counter26.smv"; "--step-limit"; "64"; "-q" ] in
  expect "trip case exits 2" (code = 2);
  expect "trip case reports UNDETERMINED"
    (contains ~needle:"UNDETERMINED (step budget of 64 exceeded" out);
  expect "trip case still checks the next spec"
    (contains ~needle:"(AG (b0 | !b0)) is true" out);
  (* --stats computes the reachable set before the specs; it runs under
     the same per-spec budgets, so on counter26 (2^26 iterations) the
     timeout trips it, the count is reported unknown, and the specs are
     still checked. *)
  let code, out =
    run ~watchdog:60
      [ model "counter26.smv"; "--stats"; "--timeout"; "1"; "-q" ]
  in
  expect "--stats trip case exits 2" (code = 2);
  expect "--stats trip case reports the reachable count unknown"
    (contains ~needle:"reachable count unknown (timeout after" out);
  expect "--stats trip case still checks the specs"
    (contains ~needle:"(AG (b0 | !b0)) is true" out);
  (* Pass case: a governed run with generous budgets behaves exactly
     like an ungoverned one — mutex.smv has one false spec, exit 1. *)
  let code, out =
    run
      [ model "mutex.smv"; "--timeout"; "300"; "--node-limit"; "50000000";
        "-q" ]
  in
  expect "pass case exits 1" (code = 1);
  expect "pass case leaves nothing undetermined"
    (not (contains ~needle:"UNDETERMINED" out));
  if !failures > 0 then begin
    Printf.printf "%d deviation(s) from the exit-code contract\n%!" !failures;
    exit 1
  end
