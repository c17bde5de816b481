(** Mutex-guarded shared registry and frame pool: the contended baseline
    for [Runtime.Fastcall]. *)

type frame = { scratch : Bytes.t; mutable frame_calls : int }
type handler = frame -> int array -> unit

type t

exception No_entry of int

val create : ?frames:int -> unit -> t
val register : t -> handler -> int
val call : t -> ep:int -> int array -> int
val calls : t -> int
