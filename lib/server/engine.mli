(** The per-specification checking engine, shared by the one-shot CLI
    and the check server.

    This is the code that used to live inside [bin/smv_check.ml]:
    recovery-ladder-driven checking of one specification, trace
    construction, certification, and the exact output text.  Factoring
    it here is what makes the server's byte-identity guarantee
    checkable at all — both entry points call the very same
    [check_one], so a server reply's [output] field and a one-shot
    run's stdout are the same bytes by construction, not by parallel
    maintenance of two printers.

    Two deliberate behaviour fixes ride along with the extraction:
    {ul
    {- cancellation is an explicit [cancel] atomic rather than a
       process global, so every server request carries its own flag
       and cancelling one request cannot abort another;}
    {- the spec's embedded [Pred] state sets are rooted for the
       duration of the check — a ladder-triggered [Bdd.gc] between
       attempts used to be able to sweep them (compiled specs are not
       reachable from the model's roots), which mattered rarely for a
       one-shot run but constantly for a warm server re-checking
       long-lived compiled specs.}} *)

(** Per-spec verdicts; [Undetermined] covers resource breaches and
    (without [debug]) unexpected exceptions, so one bad specification
    never takes down the rest of the run. *)
type verdict = Holds | Fails | Undetermined of string

(** What {!check_one} hands back: the verdict plus whether a produced
    trace failed certification (which forces exit code 3). *)
type report = { verdict : verdict; cert_failed : bool }

(** The per-check options: the one schema both front ends decode onto.
    The CLI builds it from its flags and the check server from a
    request's ["options"] object; both start from {!default_opts} and
    both run {!validate_opts}, so a flagless one-shot run and an
    option-less request check alike.  Each field below is given as
    JSON key / CLI flag; on the wire a [bool] is a JSON boolean, an
    [int] or [float] a number, and [reorder] and [inject] are strings
    spelled as on the CLI.  [partitioned] and [reorder] shape the
    model the caller compiles; the rest steer {!check_one}. *)
type opts = {
  fair : bool;
      (** ["fair"] / [--no-fairness] (negated): honour FAIRNESS
          constraints when deciding specifications *)
  traces : bool;
      (** ["traces"] / [-q] (negated): print witness / counterexample
          traces *)
  stats : bool;
      (** ["stats"] / [--stats]: print per-spec attempt logs on
          retries.  The server answers with the reply's ["stats"]
          object; the CLI also prints model and run statistics. *)
  certify : bool;
      (** ["certify"] / [--certify]: re-validate every emitted trace *)
  partitioned : bool;
      (** ["partitioned"] / [--partitioned]: compile a conjunctively
          partitioned transition relation *)
  timeout : float option;  (** ["timeout"] / [--timeout]: seconds per spec *)
  node_limit : int option;  (** ["node_limit"] / [--node-limit] *)
  step_limit : int option;  (** ["step_limit"] / [--step-limit] *)
  retries : int;  (** ["retries"] / [--retries] *)
  retry_factor : float;  (** ["retry_factor"] / [--retry-budget-factor] *)
  inject : (Bdd.Fault.site * int) option;
      (** ["inject"] / [--inject SITE:COUNT]: arm a fault for every
          checked spec, disarmed again on exit *)
  reorder : [ `None | `Once | `Auto ];  (** ["reorder"] / [--reorder] *)
  reorder_threshold : int;  (** ["reorder_threshold"] / [--reorder-threshold] *)
}

val default_opts : opts
(** The flag defaults: fair, traces on, everything else
    off or unbounded, [retry_factor = 2.0], [reorder_threshold = 4096]. *)

val reorder_modes : (string * [ `None | `Once | `Auto ]) list
(** The [reorder] values by name, as both front ends spell them. *)

val validate_opts : opts -> (unit, string) result
(** The range checks: positive budgets and threshold, [retries >= 0],
    [retry_factor >= 1.0].  The message names the flag and the key. *)

(** A parsed [SITE:COUNT] fault: a BDD-manager site armed inside each
    check, or one of the process-level sites only the CLI arms — kill
    the worker domain taking the [n]-th spec ([worker], one-shot
    [--jobs]) or SIGKILL the server after its [n]-th reply
    ([child-crash], [--serve]). *)
type inject = Fault of Bdd.Fault.site * int | Worker of int | Child_crash of int

val parse_inject : ?seed:int -> string -> (inject, string) result
(** Parse [SITE:COUNT].  With [seed], COUNT may also be ["rand"]: a
    seeded draw in 1..4096. *)

val compile_model :
  what:string -> (unit -> Smv.Compile.compiled) ->
  (Smv.Compile.compiled, string) result
(** Run a model load, turning the front end's errors into
    ["WHAT: syntax error at line L, column C: MSG"] and the like. *)

val compile_specs :
  what:string -> Smv.Compile.compiled -> string list ->
  ((string * Ctl.t) list, string) result
(** Compile extra CTL formulas against the model, in order; the first
    failure is [Error "WHAT \"TEXT\": MSG"]. *)

val mk_limits : opts -> cancel:bool Atomic.t -> Bdd.Limits.t
(** A fresh budget bundle carrying [opts]' budgets, cancellable
    through [cancel]. *)

val exit_code :
  interrupted:bool -> report list -> int
(** Aggregate per-spec reports into the CLI exit-code contract:
    3 when any trace failed certification, 2 when interrupted or any
    verdict is undetermined, 1 when any specification is false,
    else 0. *)

val check_one :
  Format.formatter ->
  Kripke.t ->
  opts:opts ->
  cancel:bool Atomic.t ->
  ?debug:bool ->
  clusters:(unit -> Bdd.t list) ->
  ?prior:Robust.Ladder.attempt list ->
  string * Ctl.t ->
  report
(** Check one specification.  Budgets are per-spec so one hard
    specification cannot starve the rest; the bundle is also the
    cancellation point.  With [retries = 0] this reduces to exactly
    one [Direct] attempt whose behaviour (prints included) matches
    the pre-recovery checker byte for byte.  All output goes to the
    formatter: the sequential CLI passes the standard formatter, the
    parallel CLI and the server a buffer.

    [cancel] stops the check at its next poll point (a one-shot run
    shares one flag across specs, a server request owns one);
    [debug] (default [false]) lets unexpected exceptions escape;
    [clusters] supplies the transition clusters for the degraded rung
    (a thunk: workers transfer them onto their own manager lazily);
    [opts.inject] arms the manager's fault before the first attempt,
    and is always disarmed again on exit; [prior] carries a crashed worker
    attempt so the local re-run resumes the ladder instead of
    restarting it. *)
