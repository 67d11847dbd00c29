/* wait4(2) and sched_setaffinity(2) for the benchmark program, which
   OCaml's Unix library does not expose. */

#define _GNU_SOURCE
#include <errno.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* pb_wait4 : int -> float
   (the child's user + sys seconds; 0 when there is no such child) */
CAMLprim value pb_wait4(value vpid)
{
  CAMLparam1(vpid);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) CAMLreturn(caml_copy_double(0.0));
  CAMLreturn(caml_copy_double(ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6
                              + ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6));
}

/* pb_pin_last_cpu : unit -> int
   Restricts the calling thread, and the processes it starts from then
   on, to the highest-numbered CPU it may run on; that CPU's number, or
   -1 when the affinity calls fail. */
CAMLprim value pb_pin_last_cpu(value unit)
{
  (void)unit;
  cpu_set_t set;
  int cpu = -1;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  for (int i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) cpu = i;
  if (cpu < 0) return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(cpu);
}
