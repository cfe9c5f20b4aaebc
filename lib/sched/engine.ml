(* Deterministic cooperative scheduler.

   Thread bodies run as effect-based fibers on a single domain. Every
   shared-memory primitive crosses [Atomics.Schedpoint], whose hook we
   replace with a [Yield] effect for the duration of the run; each
   resumption therefore executes the fiber up to (and including) its
   next atomic primitive — one "step" in the sense of the paper's
   wait-freedom bounds. The policy picks which runnable fiber performs
   the next step, so any interleaving of primitives can be produced
   and reproduced exactly.

   Fault plans ([Fault.plan]) are interpreted here:
   - a crashed fiber's state becomes [Dead] at its crash step: it is
     dropped from the runnable set *without being unwound*, so
     whatever announcements/hazards/references it held stay in place
     (the paper's stopped-process model), and the run ends without
     it.
   - a stalled fiber is withheld from the policy during its window;
     if every live fiber is stalled at once, the engine lets the step
     clock tick idly (no fiber runs, nothing is recorded in the
     schedule) until a window expires. Idle ticks count against
     [max_steps].
   When a plan is active the engine additionally installs a
   [Schedpoint] check asserting that the fiber executing a primitive
   is the one it resumed — a cheap Sim-mode guard that the fault
   bookkeeping and the policy agree.

   Only one run may be active at a time (single global hook); this is
   enforced with [running]. *)

open Effect
open Effect.Deep

type _ Effect.t += Yield : unit Effect.t

exception Fiber_failed of int * exn
exception Out_of_steps

(* Without a printer the default formatter hides the nested exception
   ("Fiber_failed(2, _)"), which is exactly the part a counterexample
   report needs. *)
let () =
  Printexc.register_printer (function
    | Fiber_failed (tid, e) ->
        Some
          (Printf.sprintf "Fiber_failed(tid %d: %s)" tid
             (Printexc.to_string e))
    | _ -> None)

type state =
  | Not_started of (unit -> unit)
  | Suspended of (unit, unit) continuation
  | Running
  | Finished
  | Failed of exn
  | Dead
      (* crashed by a fault plan: never resumed, never unwound, its
         continuation dropped with all its shared-memory footprint
         left as-is *)

type outcome = {
  steps : int array;
  total_steps : int;
  schedule : int array;
}

let cur_tid = ref (-1)
let cur_step = ref 0
let running = ref false
let live_steps = ref [||]

let current_tid () = !cur_tid
let now () = !cur_step
let active () = !running

let steps_of tid =
  let s = !live_steps in
  if tid < 0 || tid >= Array.length s then
    invalid_arg "Engine.steps_of: tid out of range"
  else s.(tid)

(* The run ends once every fiber that [faults] does not crash has
   completed; a crashed fiber is abandoned mid-operation. *)
let run ?(max_steps = 2_000_000) ?(faults = []) ~threads ~policy body =
  if threads <= 0 then invalid_arg "Engine.run: threads";
  if !running then invalid_arg "Engine.run: nested runs are not supported";
  Fault.validate ~threads faults;
  let states = Array.init threads (fun i -> Not_started (fun () -> body i)) in
  let steps = Array.make threads 0 in
  live_steps := steps;
  let sched_rev = ref [] in
  let handler tid =
    {
      retc = (fun () -> states.(tid) <- Finished);
      exnc = (fun e -> states.(tid) <- Failed e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (a, unit) continuation) ->
                  states.(tid) <- Suspended k)
          | _ -> None);
    }
  in
  let awaited = Array.make threads true in
  List.iter (fun tid -> awaited.(tid) <- false) (Fault.crashed_tids faults);
  let all_done () =
    let all = ref true in
    for i = 0 to threads - 1 do
      if awaited.(i) then
        match states.(i) with
        | Finished | Failed _ | Dead -> ()
        | Not_started _ | Suspended _ | Running -> all := false
    done;
    !all
  in
  (* Mark fibers whose crash step has been reached: drop them from the
     runnable set without resuming (= without unwinding) them. *)
  let mark_dead () =
    for tid = 0 to threads - 1 do
      if Fault.dead_at faults ~step:!cur_step ~tid then
        match states.(tid) with
        | Not_started _ | Suspended _ -> states.(tid) <- Dead
        | Running -> assert false
        | Finished | Failed _ | Dead -> ()
    done
  in
  let runnable () =
    let acc = ref [] in
    for i = threads - 1 downto 0 do
      match states.(i) with
      | Not_started _ | Suspended _ -> acc := i :: !acc
      | Running -> assert false
      | Finished | Failed _ | Dead -> ()
    done;
    !acc
  in
  let yield () = perform Yield in
  (* Sim-mode fault check: a primitive must only ever be executed by
     the fiber the engine just resumed. Catches fault-bookkeeping or
     policy-wrapper bugs at the earliest possible point. *)
  let fault_check () =
    if !cur_tid >= 0 then
      match states.(!cur_tid) with
      | Running -> ()
      | _ ->
          failwith
            (Printf.sprintf
               "Engine: fiber %d executed a primitive while not Running"
               !cur_tid)
  in
  (* All argument validation is done; from here on, [running] is
     always reset on every exit path. *)
  running := true;
  cur_step := 0;
  cur_tid := -1;
  let finish () =
    running := false;
    cur_tid := -1
  in
  let with_fault_check body =
    if faults = [] then body ()
    else Atomics.Schedpoint.with_check fault_check body
  in
  (try
     with_fault_check (fun () ->
         Atomics.Schedpoint.with_hook yield (fun () ->
             let rec loop () =
               if all_done () then ()
               else begin
                 if faults <> [] then mark_dead ();
                 match runnable () with
                 | [] -> ()
                 | rs -> (
                     if !cur_step >= max_steps then raise Out_of_steps;
                     let avail =
                       if faults = [] then rs
                       else
                         List.filter
                           (fun tid ->
                             not
                               (Fault.stalled_at faults ~step:!cur_step ~tid))
                           rs
                     in
                     match avail with
                     | [] ->
                         (* Every live fiber is inside a stall window:
                            nothing can run, but time still passes —
                            tick the clock until a window expires. *)
                         incr cur_step;
                         loop ()
                     | avail ->
                         let tid =
                           Policy.next policy ~runnable:avail ~step:!cur_step
                         in
                         if not (List.mem tid avail) then
                           invalid_arg
                             "Engine.run: policy chose a non-runnable tid";
                         cur_tid := tid;
                         incr cur_step;
                         steps.(tid) <- steps.(tid) + 1;
                         sched_rev := tid :: !sched_rev;
                         (match states.(tid) with
                         | Not_started f ->
                             states.(tid) <- Running;
                             match_with f () (handler tid)
                         | Suspended k ->
                             states.(tid) <- Running;
                             continue k ()
                         | Running | Finished | Failed _ | Dead ->
                             assert false);
                         cur_tid := -1;
                         loop ())
               end
             in
             loop ()))
   with e ->
     finish ();
     raise e);
  finish ();
  Array.iteri
    (fun i s -> match s with Failed e -> raise (Fiber_failed (i, e)) | _ -> ())
    states;
  {
    steps;
    total_steps = !cur_step;
    schedule = Array.of_list (List.rev !sched_rev);
  }
