(** The 8-word register argument block of a PPC call (Figure 4's
    PPC_CALL macro): eight words in, eight words out, with the last slot
    carrying opcode/flags in and the return code out. *)

type t = int array

val words : int
(** Always 8. *)

val opflags_slot : int

val make : unit -> t
val of_list : int list -> t

val get : t -> int -> int
val set : t -> int -> int -> unit

val op_flags : op:int -> flags:int -> int
(** Pack opcode and flags (both 16-bit). *)

val op_of : int -> int
val flags_of : int -> int

val set_op : t -> op:int -> flags:int -> unit
val op : t -> int
val flags : t -> int

val set_rc : t -> int -> unit
val rc : t -> int

val ok : int
val err_no_entry : int
val err_killed : int
val err_denied : int
val err_bad_request : int

val err_no_resources : int
(** Frank could not create the worker or CD the call needed (allocation
    failure / injected resource fault). *)

val err_too_big : int
(** Bulk payload exceeds the per-call copy limit — chunk and retry. *)

val err_copy_fault : int
(** The copy service refused the transfer: bad range, region or
    ownership. *)

val copy : t -> t
val pp : Format.formatter -> t -> unit
