/* Timed-wait primitives for the runtime's deadline path.
 *
 * The OCaml stdlib offers no timed condition wait and no boxing-free
 * monotonic clock, so the deadline protocol gets three tiny stubs:
 *
 *   - now_ns: CLOCK_MONOTONIC in integer nanoseconds.  [@@noalloc] —
 *     the result is an immediate (63-bit nanoseconds since boot fit
 *     with centuries to spare), so a warm deadline call reads the
 *     clock without touching the minor heap.
 *   - yield: sched_yield(2).  Hands the core to another runnable
 *     thread — on a single-core host this is what lets the server
 *     domain produce the reply the caller is waiting for.  Does not
 *     release the domain lock: other domains do not share it, and the
 *     call returns in microseconds.
 *   - nap_ns: nanosleep(2) inside enter/leave_blocking_section, so a
 *     sleeping client never stalls a stop-the-world section.  Not
 *     [@@noalloc]: leaving the blocking section may run pending
 *     actions.
 *
 * The segment stubs further down add the doorbell's futex wait and
 * wake, which every parker in the runtime uses.  They are Linux-only:
 * without __linux__ the wait sleeps out its timeout with nanosleep and
 * the wake is a no-op, so a parker there sees new work only when its
 * timed wait ends (a nap for the shm server, Doorbell.park_bound_ns for
 * a Fastcall shard).
 */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <caml/threads.h>
#include <errno.h>
#include <sched.h>
#include <signal.h>
#include <stdint.h>
#include <sys/mman.h>
#include <time.h>
#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

CAMLprim value ppc_runtime_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

CAMLprim value ppc_runtime_yield(value unit)
{
  (void)unit;
  sched_yield();
  return Val_unit;
}

static struct timespec ns_timespec(value ns)
{
  struct timespec ts;
  intnat v = Long_val(ns);
  if (v < 0) v = 0;
  ts.tv_sec = v / 1000000000;
  ts.tv_nsec = v % 1000000000;
  return ts;
}

CAMLprim value ppc_runtime_nap_ns(value ns)
{
  struct timespec ts = ns_timespec(ns);
  caml_enter_blocking_section();
  nanosleep(&ts, NULL);
  caml_leave_blocking_section();
  return Val_unit;
}

/* --- shared-segment words (Wire_abi) ------------------------------------
 *
 * The segment is a Bigarray of int64 words, either malloc'd in-heap or
 * an mmap'd file shared between processes.  OCaml's Atomic module only
 * covers heap refs, so the cross-process flavours live here: C11
 * __atomic builtins on the bigarray's data pointer.  Stored values are
 * OCaml immediates (63-bit), so every result fits Val_long and every
 * stub is [@@noalloc].
 *
 * Memory orders mirror what the in-heap path gets from Atomic.t:
 * acquire loads, release stores, seq_cst RMW — strong enough for the
 * publish-then-bump-tail ring discipline on both x86 and ARM.
 */

static inline int64_t *seg_word(value ba, value idx)
{
  return (int64_t *)Caml_ba_data_val(ba) + Long_val(idx);
}

CAMLprim value ppc_seg_load(value ba, value idx)
{
  return Val_long((intnat)__atomic_load_n(seg_word(ba, idx), __ATOMIC_ACQUIRE));
}

CAMLprim value ppc_seg_store(value ba, value idx, value v)
{
  __atomic_store_n(seg_word(ba, idx), (int64_t)Long_val(v), __ATOMIC_RELEASE);
  return Val_unit;
}

CAMLprim value ppc_seg_cas(value ba, value idx, value expected, value desired)
{
  int64_t exp = (int64_t)Long_val(expected);
  return Val_bool(__atomic_compare_exchange_n(
      seg_word(ba, idx), &exp, (int64_t)Long_val(desired), 0,
      __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST));
}

CAMLprim value ppc_seg_fetch_add(value ba, value idx, value delta)
{
  return Val_long((intnat)__atomic_fetch_add(
      seg_word(ba, idx), (int64_t)Long_val(delta), __ATOMIC_SEQ_CST));
}

/* Copy [n] words between an OCaml int array and the segment in one
 * call, with the same per-word orders as the single-word stubs.  A
 * call payload is several words, and one stub call per word added 12%
 * to the median of a warm in-process round trip (ppcbench
 * domain-channel, 2-vCPU VM).  The caller checks [n] against both
 * bounds. */
CAMLprim value ppc_seg_blit_in(value ba, value off, value src, value n)
{
  int64_t *p = seg_word(ba, off);
  intnat k = Long_val(n);
  for (intnat i = 0; i < k; i++)
    __atomic_store_n(p + i, (int64_t)Long_val(Field(src, i)), __ATOMIC_RELEASE);
  return Val_unit;
}

CAMLprim value ppc_seg_blit_out(value ba, value off, value dst, value n)
{
  int64_t *p = seg_word(ba, off);
  intnat k = Long_val(n);
  for (intnat i = 0; i < k; i++)
    Field(dst, i) = Val_long((intnat)__atomic_load_n(p + i, __ATOMIC_ACQUIRE));
  return Val_unit;
}

/* Wait and wake on a segment word: Doorbell's parker (the shm server
 * on its nap rung, a Fastcall shard) and the ring that finds it
 * parked.
 *
 *   - ppc_seg_wait: FUTEX_WAIT on the low 32 bits of the word, for at
 *     most [ns] (relative), if those bits still equal [expected].
 *     Shared, not FUTEX_PRIVATE: the kernel keys a shared futex by the
 *     page it lives on, so a waiter and a waker in different processes
 *     meet on a MAP_SHARED file mapping, and on a private (heap)
 *     mapping it behaves as a private futex.  Runs inside
 *     enter/leave_blocking_section like nap_ns, so not [@@noalloc].
 *     Returns on a wake, on the timeout, at once if the bits differ
 *     (EAGAIN), or on a signal; the caller rechecks in every case.
 *   - ppc_seg_wake: FUTEX_WAKE of one waiter.  Never blocks; [@@noalloc].
 *
 * The low 32 bits of a little-endian word are its first four bytes,
 * which is the address futex compares (the ABI is little-endian only,
 * see Wire_abi).  Without __linux__, see the header. */
CAMLprim value ppc_seg_wait(value ba, value idx, value expected, value ns)
{
  struct timespec ts = ns_timespec(ns);
#ifdef __linux__
  uint32_t *word = (uint32_t *)seg_word(ba, idx);
  uint32_t exp = (uint32_t)Long_val(expected);
  caml_enter_blocking_section();
  syscall(SYS_futex, word, FUTEX_WAIT, exp, &ts, NULL, 0);
  caml_leave_blocking_section();
#else
  (void)ba; (void)idx; (void)expected;
  caml_enter_blocking_section();
  nanosleep(&ts, NULL);
  caml_leave_blocking_section();
#endif
  return Val_unit;
}

CAMLprim value ppc_seg_wake(value ba, value idx)
{
#ifdef __linux__
  syscall(SYS_futex, (uint32_t *)seg_word(ba, idx), FUTEX_WAKE, 1, NULL, NULL, 0);
#else
  (void)ba; (void)idx;
#endif
  return Val_unit;
}

/* Flush the whole mapping to its backing file.  Returns 0 / -errno;
 * harmless (EINVAL) on an in-heap bigarray, which is not page-aligned.
 * Synchronous, so not [@@noalloc]-hot — callers use it at shutdown. */
CAMLprim value ppc_seg_msync(value ba)
{
  void *p = Caml_ba_data_val(ba);
  intnat bytes = Caml_ba_array_val(ba)->dim[0] * 8;
  int r;
  caml_enter_blocking_section();
  r = msync(p, (size_t)bytes, MS_SYNC);
  caml_leave_blocking_section();
  return Val_long(r == 0 ? 0 : -errno);
}

/* Peer-liveness probe: kill(pid, 0).  True while the process exists —
 * including as a zombie, so a prober that forked its peer must reap it
 * (waitpid) before the probe can go negative.  The heartbeat-frozen
 * precondition keeps this syscall off the warm path. */
CAMLprim value ppc_pid_alive(value pid)
{
  int r = kill((pid_t)Long_val(pid), 0);
  return Val_bool(r == 0 || errno == EPERM);
}
