(* Small helpers shared by the workload runners: clocks, order
   statistics, files, and the result record every workload returns. *)

let now = Bdd.now_monotonic

(* wait4(2) on one child: (exit code, or 128 + signal; its peak
   resident set in KiB). *)
external wait4 : int -> int * int = "perfbench_wait4"

(* Children alive right now, killed and reaped if the run is cut
   short (see [deadline]). *)
let children : int list ref = ref []

let spawn prog args ~stdin ~stdout ~stderr =
  let pid = Unix.create_process prog args stdin stdout stderr in
  children := pid :: !children;
  pid

let reap pid =
  let r = wait4 pid in
  children := List.filter (( <> ) pid) !children;
  r

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait4 pid))
    !children;
  children := []

(* Give up after [seconds]: stop every child and exit 3 without a
   result line. *)
let deadline seconds =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "perfbench: run exceeded its time limit";
         kill_children ();
         exit 3));
  ignore (Unix.alarm seconds)

(* Quantiles by the Harrell-Davis estimator: a weighted mean of all
   order statistics, with Beta((n+1)q, (n+1)(1-q)) weights.  Where few
   samples lie beyond the quantile (the p90 of a hundred checks) it is
   far steadier than picking one or two order statistics.  [q] in (0, 1); [nan] on
   an empty sample. *)

(* log Gamma, Lanczos approximation (g = 7, n = 9). *)
let log_gamma x =
  let c =
    [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
       771.32342877765313; -176.61502916214059; 12.507343278686905;
       -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]
  in
  let x = x -. 1. in
  let a = ref c.(0) in
  for i = 1 to 8 do a := !a +. (c.(i) /. (x +. float_of_int i)) done;
  let t = x +. 7.5 in
  (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

(* Continued fraction for the incomplete beta function (modified
   Lentz). *)
let beta_cf a b x =
  let tiny = 1e-300 in
  let c = ref 1. and d = ref (1. -. ((a +. b) *. x /. (a +. 1.))) in
  if Float.abs !d < tiny then d := tiny;
  d := 1. /. !d;
  let h = ref !d and m = ref 1 and fin = ref false in
  while (not !fin) && !m < 10_000 do
    let mf = float_of_int !m in
    let step num =
      d := 1. +. (num *. !d);
      if Float.abs !d < tiny then d := tiny;
      c := 1. +. (num /. !c);
      if Float.abs !c < tiny then c := tiny;
      d := 1. /. !d;
      !d *. !c
    in
    let even = mf *. (b -. mf) *. x /. ((a +. (2. *. mf) -. 1.) *. (a +. (2. *. mf))) in
    h := !h *. step even;
    let odd =
      -.(a +. mf) *. (a +. b +. mf) *. x /. ((a +. (2. *. mf)) *. (a +. (2. *. mf) +. 1.))
    in
    let del = step odd in
    h := !h *. del;
    if Float.abs (del -. 1.) < 1e-14 then fin := true;
    incr m
  done;
  !h

(* Regularised incomplete beta I_x(a, b). *)
let beta_inc a b x =
  if x <= 0. then 0.
  else if x >= 1. then 1.
  else
    let front =
      exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x)
        +. (b *. log (1. -. x)))
    in
    if x < (a +. 1.) /. (a +. b +. 2.) then front *. beta_cf a b x /. a
    else 1. -. (front *. beta_cf b a (1. -. x) /. b)

let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | [ x ] -> x
  | sorted ->
    let n = List.length sorted in
    let nf = float_of_int n in
    let a = q *. (nf +. 1.) and b = (1. -. q) *. (nf +. 1.) in
    let _, acc =
      List.fold_left
        (fun (i, acc) x ->
          let w =
            beta_inc a b (float_of_int (i + 1) /. nf) -. beta_inc a b (float_of_int i /. nf)
          in
          (i + 1, acc +. (w *. x)))
        (0, 0.) sorted
    in
    acc

let median xs = quantile 0.5 xs

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* What a workload run reports.  [metrics] are (name, value, unit);
   [raw] the measured ones before rescaling to the reference machine
   speed (see Probe), with the probe median; [samples] names each sample
   count behind a percentile; [errors] explains every correctness
   failure (non-empty means incorrect). *)
type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  raw : (string * float * string) list;
  samples : (string * int) list;
  errors : string list;
}

(* Rescale measured end-to-end metrics by the machine slowdown [s]:
   times divide, rates multiply, sizes stay.  Set-up time is not
   rescaled: spawning and generation do not drift with the probe. *)
let rescale s metrics =
  List.map
    (fun (name, v, unit) ->
      match unit with
      | "s" | "ms" -> (name, v /. s, unit)
      | "1/s" -> (name, v *. s, unit)
      | _ -> (name, v, unit))
    metrics

(* Collect correctness failures without stopping the run, keeping the
   first few messages for the report. *)
type errors = { mutable count : int; mutable msgs : string list }

let new_errors () = { count = 0; msgs = [] }

let error e fmt =
  Printf.ksprintf
    (fun msg ->
      e.count <- e.count + 1;
      if e.count <= 20 then e.msgs <- msg :: e.msgs)
    fmt

let error_list e =
  let shown = List.rev e.msgs in
  if e.count > List.length shown then
    shown @ [ Printf.sprintf "... and %d more" (e.count - List.length shown) ]
  else shown
