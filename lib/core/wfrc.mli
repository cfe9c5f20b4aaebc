(** The paper's wait-free memory-management scheme, packaged behind
    the scheme-independent {!Mm_intf.S} signature.

    - [deref] is [DeRefLink] (Figure 4): wait-free safe de-reference
      via announcement + helping.
    - [release] is [ReleaseRef]: wait-free reference drop with
      recursive reclamation (R3).
    - [alloc] is [AllocNode] (Figure 5): wait-free allocation from the
      [2N]-list free-list with round-robin helping.
    - [cas_link] is [CompareAndSwapLink] (Figure 6): CAS + the
      mandatory [HelpDeRef] + internal link-share transfer.

    The line-level engine (and the ablation knobs) live in {!Gc}; the
    announcement pool in {!Ann}. *)

module Gc : module type of Gc
module Ann : module type of Ann

include Mm_intf.S with type t = Gc.t
