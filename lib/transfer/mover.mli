(** The engine's single consumer: a dedicated domain on the real
    substrate (parks on the engine doorbell when idle), or a manually
    stepped DMA device on the simulated substrate. *)

type t

val spawn : Copy_engine.t -> t
(** Dedicated mover domain; drains up to 32 descriptors per client per
    pass and parks when no descriptor is submitted. *)

val manual : Copy_engine.t -> t
(** A mover that only runs when {!step}ped: the sim DMA device and the
    deterministic driver for the model tests. *)

val step : t -> budget:int -> int
(** Pump a {!manual} mover: execute up to [budget] descriptors now.
    Do not mix with a live spawned mover. *)

val shutdown : t -> unit
(** Quiesce: drain everything already submitted, then stop.  No
    descriptor is abandoned.  Joins the domain. *)

val kill : t -> unit
(** Fault injection: stop now, stranding in-flight descriptors.
    Returns only after the engine's [stopped] flag is visible, so the
    victims' next [reap] runs the fail sweep deterministically. *)
