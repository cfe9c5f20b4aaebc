(* Fixture: a manager (this file sits under an [lfrc/] directory)
   reaching past [Shmem.Pool] to the native free store it wraps.
   Expected: a [raw-primitives] violation — only the shmem layer may
   name [Freestore]. *)

let cache_fill store ~tid = Shmem.Freestore.cached store ~tid
