(** The fast-path memory substrate: a flat, offset-addressed array of
    63-bit words with atomic get/set/CAS/fetch-add, addressed by the
    position-independent layout in {!Ipc_intf.Wire_abi}.

    One representation: an int64 Bigarray accessed through C11-atomic
    stubs, either malloc'd in-process ({!create_heap}) or an mmap'd file
    shared by separate OS processes ({!map_file}).  All word accessors
    are allocation-free and identical for both origins. *)

type t

val create_heap : words:int -> t
(** A zero-filled in-process segment with no backing file. *)

val map_file : path:string -> words:int -> create:bool -> unit -> t
(** Map [words] 64-bit words of the file at [path], [MAP_SHARED].
    [create:true] creates/truncates (the creator then lays out the
    segment under the {!Ipc_intf.Wire_abi} generation seqlock);
    [create:false] attaches to an existing file.  Raises
    [Unix.Unix_error] on filesystem failure. *)

val length : t -> int
(** Words in the segment. *)

val get : t -> int -> int
(** Atomic acquire load.  Unchecked: the call path computes offsets
    from a validated header. *)

val set : t -> int -> int -> unit
(** Atomic release store. *)

val get_words : t -> int -> int array -> int -> unit
(** [get_words t i dst n] copies words [i .. i+n-1] into [dst.(0 .. n-1)]
    with {!get}'s order, in one call.  Raises [Invalid_argument] if
    [dst] is shorter than [n]; the segment side is unchecked. *)

val set_words : t -> int -> int array -> int -> unit
(** [set_words t i src n] stores [src.(0 .. n-1)] into words
    [i .. i+n-1] with {!set}'s order, in one call.  Checked as
    {!get_words}. *)

val cas : t -> int -> expected:int -> desired:int -> bool
val fetch_add : t -> int -> int -> int
(** Sequentially consistent RMW; [fetch_add] returns the prior value. *)

val wait : t -> int -> expected:int -> ns:int -> unit
(** [wait t i ~expected ~ns] sleeps in a shared [FUTEX_WAIT] on the low
    32 bits of word [i] while they equal [expected land 0xffff_ffff],
    for at most [ns] nanoseconds (relative).  Returns on a {!wake}, on
    the timeout, at once if the bits differ, or on a signal: callers
    recheck their condition whatever the reason.  Shared (not
    [FUTEX_PRIVATE]), so a waiter and a waker in different processes
    meet on a file mapping; works on heap segments too.  Releases the
    domain lock while it sleeps.  Without Linux futexes it sleeps out
    [ns]. *)

val wake : t -> int -> unit
(** Wake one {!wait}er on word [i] ([FUTEX_WAKE]); a no-op without one
    (and without Linux futexes).  Never blocks; allocation-free. *)

val get_checked : t -> int -> int
(** Bounds-checked read for management paths; raises
    [Invalid_argument] on an out-of-range word. *)

val path : t -> string option
(** The backing file, if any. *)

val msync : t -> int
(** Flush a file mapping to its file (synchronous).  Returns 0 or a
    negated errno; 0 and a no-op without a backing file. *)

val unlink : t -> unit
(** Remove the backing file (best-effort); no-op without one. *)

val pid_alive : int -> bool
(** [kill(pid, 0)] liveness probe.  A zombie counts as alive, so a
    prober that forked its peer must reap it before trusting [false]. *)
