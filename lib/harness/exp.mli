(** Declarative experiment specs: the registry and CLI are derived
    from these records, never hand-maintained. *)

type params = { quick : bool }

type spec = {
  id : string;     (** registry key, lowercase: ["e1"], ["a1"], … *)
  descr : string;  (** one-liner for [wfrc_bench list] / [--help] *)
  run : params -> Report.t;
}

val spec : id:string -> descr:string -> (params -> Report.t) -> spec

val sort : spec list -> spec list
(** Canonical display order: e-experiments by number, then the
    ablations — derived from the ids. *)

val ids : spec list -> string list

val find : spec list -> string -> spec option
(** Case-insensitive id lookup. *)

val run : spec list -> ?quick:bool -> string -> Report.t
(** Raises [Invalid_argument] listing the known ids on an unknown
    id. *)
