/* Pin the calling thread to one CPU of the process's allowed set: the
   (k mod n)-th of its n allowed CPUs. Returns the CPU chosen, or -1
   where affinity is not available (non-Linux) or the call fails. */
#define _GNU_SOURCE
#include <caml/mlvalues.h>
#ifdef __linux__
#include <sched.h>
#endif

value perfbench_pin_cpu(value k)
{
#ifdef __linux__
  cpu_set_t allowed, one;
  int n, i, seen = 0, want;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return Val_int(-1);
  n = CPU_COUNT(&allowed);
  if (n <= 0) return Val_int(-1);
  want = Int_val(k) % n;
  for (i = 0; i < CPU_SETSIZE; i++) {
    if (!CPU_ISSET(i, &allowed)) continue;
    if (seen++ == want) {
      CPU_ZERO(&one);
      CPU_SET(i, &one);
      return Val_int(sched_setaffinity(0, sizeof(one), &one) == 0 ? i : -1);
    }
  }
  return Val_int(-1);
#else
  (void)k;
  return Val_int(-1);
#endif
}
