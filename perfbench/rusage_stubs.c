/* wait4(2) for one child: its exit status and its own peak resident
   set size, which the OCaml Unix library does not expose. */
#include <sys/types.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <errno.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/signals.h>
#include <caml/fail.h>

/* Returns (exit_code, maxrss_kb); exit_code is 128 + signal number
   for a child killed by a signal. */
CAMLprim value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  for (;;) {
    caml_enter_blocking_section();
    r = wait4(Int_val(vpid), &status, 0, &ru);
    caml_leave_blocking_section();
    if (r >= 0 || errno != EINTR) break;
    /* Let OCaml signal handlers (the run's deadline) run. */
    caml_process_pending_actions();
  }
  if (r < 0) caml_failwith("wait4");
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : 128 + WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
