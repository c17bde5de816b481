(** Lock-free multi-producer single-consumer queue (Vyukov): the
    request queue of the legacy cross-domain path, {!Mpsc_server}. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Any domain; one atomic exchange, no CAS loop. *)

val pop : 'a t -> 'a option
(** Consumer domain only. *)

val is_empty : 'a t -> bool
