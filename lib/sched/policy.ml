(* Scheduling policies for the deterministic engine.

   A policy is asked, at each step, to pick one of the currently
   runnable thread ids. The engine validates the choice, so a policy
   may be sloppy about threads that have already finished — but every
   built-in policy fails loudly (descriptive [Invalid_argument], not
   [Failure "hd"]) if it is ever consulted with an empty runnable
   list, which can only mean a driver bug. *)

type t = {
  name : string;
  next : runnable:int list -> step:int -> int;
}

let name t = t.name
let next t = t.next

let make ~name next = { name; next }

let no_runnable policy =
  invalid_arg (Printf.sprintf "Policy.%s: empty runnable list" policy)

let round_robin () =
  let last = ref (-1) in
  let next ~runnable ~step:_ =
    let pick =
      match List.find_opt (fun i -> i > !last) runnable with
      | Some i -> i
      | None -> (
          match runnable with
          | [] -> no_runnable "round_robin"
          | i :: _ -> i)
    in
    last := pick;
    pick
  in
  { name = "round_robin"; next }

let random ~seed =
  let rng = Rng.create seed in
  let next ~runnable ~step:_ =
    match List.length runnable with
    | 0 -> no_runnable "random"
    | len -> List.nth runnable (Rng.int rng len)
  in
  { name = Printf.sprintf "random(seed=%d)" seed; next }

(* Follow a recorded schedule; fall back to the lowest runnable thread
   once the recording is exhausted or names a finished thread. Used to
   replay counterexamples from Explore. *)
let replay schedule =
  let pos = ref 0 in
  let next ~runnable ~step:_ =
    let fallback () =
      match runnable with [] -> no_runnable "replay" | i :: _ -> i
    in
    if !pos >= Array.length schedule then fallback ()
    else begin
      let tid = schedule.(!pos) in
      incr pos;
      if List.mem tid runnable then tid else fallback ()
    end
  in
  { name = "replay"; next }

(* Starve [victim]: run any other runnable thread first. This is the
   adversary of experiment E2 — against a lock-free de-reference the
   other threads' link updates force retries; against the paper's
   wait-free one the victim still finishes in a bounded number of its
   own steps once it runs. Deterministic: the engine supplies
   [runnable] in ascending tid order, so the pick is always the lowest
   non-victim — and the victim itself exactly when it alone is
   runnable. *)
let others_first ~victim =
  let next ~runnable ~step:_ =
    match runnable with
    | [] -> no_runnable "others_first"
    | _ -> (
        match List.filter (fun i -> i <> victim) runnable with
        | [] -> victim
        | i :: _ -> i)
  in
  { name = Printf.sprintf "others_first(victim=%d)" victim; next }

(* Probabilistic starvation: pick the victim with probability
   1/(weight+1) whenever someone else is runnable. Interleaves the
   victim's steps with adversary steps, which is what actually triggers
   the Valois retry loop. *)
let biased ~seed ~victim ~weight =
  if weight < 0 then invalid_arg "Policy.biased";
  let rng = Rng.create seed in
  let next ~runnable ~step:_ =
    if runnable = [] then no_runnable "biased";
    let others = List.filter (fun i -> i <> victim) runnable in
    if others = [] then victim
    else if not (List.mem victim runnable) then
      List.nth others (Rng.int rng (List.length others))
    else if Rng.int rng (weight + 1) = 0 then victim
    else List.nth others (Rng.int rng (List.length others))
  in
  { name = Printf.sprintf "biased(victim=%d,weight=%d)" victim weight; next }
