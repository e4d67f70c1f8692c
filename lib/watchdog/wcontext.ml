(* Watchdog context table (§3.1 State Synchronization).

   Hooks in the main program push live values in (one-way: the main program
   never reads the table); the driver checks readiness and fetches arguments
   before running a checker. Isolation is the paper's context replication —
   a checker can never alias mutable main-program memory — implemented
   copy-on-write instead of eagerly:

   - values with no VBytes anywhere are persistent, so handing out the
     stored value *is* a deep copy, observably;
   - bytes-containing values are copied on read, with the copy cached
     against the slot's version stamp: re-reading an unchanged slot reuses
     the cached copy (checker execution never mutates argument buffers in
     place — the IR has no in-place bytes primitive — so a cached copy
     stays byte-identical to a fresh one). *)

open Wd_ir.Ast

type slot = {
  mutable value : value option;
  mutable updated_at : int64;
  mutable version : int;       (* bumped on every hook write *)
  mutable copy_version : int;  (* version [copy] reflects; -1 = no copy yet *)
  mutable copy : value;        (* valid iff [copy_version = version] *)
}

type unit_ctx = {
  unit_id : string;
  params : string list; (* ordered: the reduced function's parameter list *)
  slots : (string, slot) Hashtbl.t;
  mutable updates : int;
}

type hook_binding = { hb_unit : string; hb_rev : (string * string) list }
(* hb_rev: (tmp variable captured in main program, context parameter) —
   the reverse of the registered captures, precomputed at bind time so the
   per-hook-fire sink does no list rebuilding. *)

type t = {
  units : (string, unit_ctx) Hashtbl.t;
  hook_bindings : (int, hook_binding) Hashtbl.t;
  mutable total_updates : int;
}

let create () =
  { units = Hashtbl.create 32; hook_bindings = Hashtbl.create 32; total_updates = 0 }

let register_unit t ~unit_id ~params =
  let slots = Hashtbl.create (max 1 (List.length params)) in
  List.iter
    (fun p ->
      Hashtbl.replace slots p
        {
          value = None;
          updated_at = 0L;
          version = 0;
          copy_version = -1;
          copy = VUnit;
        })
    params;
  Hashtbl.replace t.units unit_id { unit_id; params; slots; updates = 0 }

let bind_hook t ~hook_id ~unit_id ~captures =
  Hashtbl.replace t.hook_bindings hook_id
    {
      hb_unit = unit_id;
      hb_rev = List.map (fun (param, tmp) -> (tmp, param)) captures;
    }

let find_unit t unit_id = Hashtbl.find_opt t.units unit_id

(* The sink the main-program interpreter calls when a Hook fires. *)
let sink t ~now hook_id values =
  match Hashtbl.find_opt t.hook_bindings hook_id with
  | None -> ()
  | Some { hb_unit; hb_rev } -> (
      match Hashtbl.find_opt t.units hb_unit with
      | None -> ()
      | Some ctx ->
          List.iter
            (fun (tmp, v) ->
              match vmap_find tmp hb_rev with
              | None -> ()
              | Some param -> (
                  match Hashtbl.find_opt ctx.slots param with
                  | None -> ()
                  | Some slot ->
                      slot.value <- Some v;
                      slot.updated_at <- now;
                      slot.version <- slot.version + 1))
            values;
          ctx.updates <- ctx.updates + 1;
          t.total_updates <- t.total_updates + 1)

let ready t unit_id =
  match find_unit t unit_id with
  | None -> false
  | Some ctx ->
      List.for_all
        (fun p ->
          match Hashtbl.find_opt ctx.slots p with
          | Some { value = Some _; _ } -> true
          | Some { value = None; _ } | None -> false)
        ctx.params

(* Copy-on-write read of one slot: share persistent values outright; copy
   bytes-containing values once per version and reuse the cached copy until
   the next hook write replaces it (the cache swaps the pointer, never
   mutates the handed-out copy, so earlier readers keep a valid value). *)
let slot_read slot v =
  if value_immutable v then v
  else if slot.copy_version = slot.version then slot.copy
  else begin
    let c = copy_value v in
    slot.copy <- c;
    slot.copy_version <- slot.version;
    c
  end

(* Ordered argument list for the reduced function; observably a deep copy. *)
let args t unit_id =
  match find_unit t unit_id with
  | None -> None
  | Some ctx ->
      let rec gather = function
        | [] -> Some []
        | p :: rest -> (
            match Hashtbl.find_opt ctx.slots p with
            | Some ({ value = Some v; _ } as slot) -> (
                match gather rest with
                | Some vs -> Some (slot_read slot v :: vs)
                | None -> None)
            | Some { value = None; _ } | None -> None)
      in
      gather ctx.params

(* Captured (param, value) pairs for failure reports. *)
let snapshot t unit_id =
  match find_unit t unit_id with
  | None -> []
  | Some ctx ->
      List.filter_map
        (fun p ->
          match Hashtbl.find_opt ctx.slots p with
          | Some ({ value = Some v; _ } as slot) -> Some (p, slot_read slot v)
          | Some { value = None; _ } | None -> None)
        ctx.params

(* Age of the stalest slot: how long since the main program last passed this
   point. *)
let staleness t ~now unit_id =
  match find_unit t unit_id with
  | None -> None
  | Some ctx ->
      if ctx.params = [] then None
      else
        List.fold_left
          (fun acc p ->
            match Hashtbl.find_opt ctx.slots p with
            | Some { value = Some _; updated_at; _ } -> (
                let age = Int64.sub now updated_at in
                match acc with
                | Some worst when worst >= age -> acc
                | Some _ | None -> Some age)
            | Some { value = None; _ } | None -> acc)
          None ctx.params

let updates t unit_id =
  match find_unit t unit_id with Some ctx -> ctx.updates | None -> 0

(* The unit's monotone context version: bumped once per hook delivery, so
   an unchanged version means every slot holds exactly the bytes a previous
   reader saw (writes only happen in [sink]). This is the dedup key the
   adaptive scheduler pairs with a checker id, and — because [slot_read]
   caches copies against slot versions — co-scheduled checkers reading the
   same unit at one version share one COW snapshot rather than re-copying. *)
let version = updates

let total_updates t = t.total_updates
