(* Smoke test for fair checking end to end, run via
   `dune build @fair-smoke`: every committed example model is checked
   under --certify and must exit with its known code, with every
   printed trace independently re-validated and no certification
   failure.

   The fairness-heavy models (philosophers, ring) exercise the
   Emerson-Lei nested fixpoint and its onion-ring witnesses proper; the
   fairness-free ones cover the degenerate single-[true]-constraint
   path; counter26 runs under a step budget so the governed
   UNDETERMINED path is covered too. *)

let exe = Filename.concat (Filename.concat ".." "bin") "smv_check.exe"

let run args =
  let cmd = Filename.quote_command exe args ^ " 2>&1" in
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

let failures = ref 0

let expect what cond =
  if cond then Printf.printf "ok: %s\n%!" what
  else begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" what
  end

let model name =
  Filename.concat (Filename.concat (Filename.concat ".." "examples") "models")
    name

let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else go (i + 1) (if String.sub hay i nn = needle then acc + 1 else acc)
  in
  go 0 0

(* Expected exit codes: 0 all true, 1 some false, 2 budget tripped. *)
let workloads =
  [
    ("arbiter", 1, [ model "arbiter.smv" ]);
    ("cache", 1, [ model "cache.smv" ]);
    ("counter12", 0, [ model "counter12.smv" ]);
    ("counter26", 2, [ model "counter26.smv"; "--step-limit"; "64" ]);
    ("mutex", 1, [ model "mutex.smv" ]);
    ("philosophers", 1, [ model "philosophers.smv" ]);
    ("ring", 1, [ model "ring.smv" ]);
  ]

let check (name, expected, args) =
  let code, out = run (args @ [ "--certify" ]) in
  expect (Printf.sprintf "%s: exit code %d" name expected) (code = expected);
  if code <> expected then Printf.printf "--- output ---\n%s\n%!" out;
  expect (name ^ ": every trace certified")
    (count_substring out "as demonstrated"
    = count_substring out "-- certificate: trace independently validated");
  expect (name ^ ": no certification failure")
    (count_substring out "CERTIFICATION FAILED" = 0);
  if expected = 2 then
    expect (name ^ ": breach reported") (count_substring out "UNDETERMINED" > 0)

let () =
  List.iter check workloads;
  if !failures > 0 then begin
    Printf.printf "%d deviation(s) from the fair-checking contract\n%!"
      !failures;
    exit 1
  end
