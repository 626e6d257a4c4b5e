(* Machine-speed probe.  On a shared host the same pass of checks can
   run 1.5x slower while neighbours are busy, and the checker's CPU
   time moves with its wall time, so the drift is the machine's, not
   the scheduler's.  The probe is a fixed in-process job that
   shares no code with the checker — it grows and hammers a hash
   table, the allocation- and hashing-heavy profile of BDD work (a
   pre-faulted pointer chase did not follow the drift) — timed between
   measured operations.  The measured end-to-end times are reported
   rescaled to a reference machine speed:

     reported = measured * reference_s / median(probe times)

   so a slower program still reads slower, while a slower machine does
   not.  Raw times and the probe median are kept in the result file. *)

(* The probe's typical time on a quiet two-core host; it only sets the
   scale of the reported numbers. *)
let reference_s = 0.060

let run () =
  let t0 = Util.now () in
  let h = Hashtbl.create 16 in
  for i = 0 to 120_000 do
    Hashtbl.replace h (i * 7919) i
  done;
  let s = ref 0 in
  for i = 0 to 240_000 do
    match Hashtbl.find_opt h (i * 13) with Some v -> s := !s + v | None -> ()
  done;
  ignore (Sys.opaque_identity !s);
  Util.now () -. t0

(* Speed of the machine while the probes ran, relative to the
   reference: > 1 when slower. *)
let slowdown probes = Util.median probes /. reference_s
