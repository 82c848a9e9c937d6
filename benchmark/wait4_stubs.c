/* wait4(2) for the benchmark's process-tree accounting.

   The rusage wait4 returns for a child covers the child and every
   descendant the child itself waited for, so one call gives the CPU
   time of a coordinator plus its worker processes, and ru_maxrss the
   largest resident set anywhere in that tree. OCaml's Unix library has
   no binding for it. */

#define _GNU_SOURCE
#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* wpbench_wait4 pid -> (pid, code, cpu_s, maxrss_kb)
   pid = -1 when a signal interrupted the wait (the caller runs its
   handler and retries). code is the exit status, or -signal when the
   child was killed. */
value wpbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal2(res, cpu);
  int status = 0;
  struct rusage ru;
  pid_t r;
  pid_t pid = Int_val(vpid);

  memset(&ru, 0, sizeof ru);
  caml_enter_blocking_section();
  r = wait4(pid, &status, 0, &ru);
  caml_leave_blocking_section();

  if (r < 0 && errno == EINTR)
    r = -1;
  else if (r < 0)
    caml_failwith(strerror(errno));

  int code = 0;
  if (r > 0) {
    if (WIFEXITED(status))
      code = WEXITSTATUS(status);
    else if (WIFSIGNALED(status))
      code = -WTERMSIG(status);
  }
  double secs = (double)ru.ru_utime.tv_sec + (double)ru.ru_utime.tv_usec * 1e-6
              + (double)ru.ru_stime.tv_sec + (double)ru.ru_stime.tv_usec * 1e-6;
  cpu = caml_copy_double(secs);
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(r));
  Store_field(res, 1, Val_int(code));
  Store_field(res, 2, cpu);
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
