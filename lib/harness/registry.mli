(** Registry of the memory-management schemes (the paper's §1
    comparison space). *)

val all : (string * (module Mm_intf.S)) list

val names : string list
(** ["wfrc"; "lfrc"; "hp"; "ebr"; "lockrc"]. *)

val rc_names : string list
(** The reference-counting subset — the schemes that support arbitrary
    structures (used by the priority queue). *)

val find : string -> (module Mm_intf.S)
(** Raises [Invalid_argument] listing the known names. *)

val instantiate : string -> Mm_intf.config -> Mm_intf.instance
