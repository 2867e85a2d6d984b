(* Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.
   Operates on reachable blocks only. Every table is an array indexed by
   block id, sized to the function when the tree was computed. *)

open Types

type t = {
  order : bid list;                  (* reverse postorder *)
  preds : bid list array;            (* the predecessor map it was computed over *)
  index : int array;                 (* rpo index; -1 when unreachable *)
  idom : int array;                  (* immediate dominator; entry maps to itself; -1 unset *)
  children : bid list array Lazy.t;  (* ascending *)
}

let compute (fn : fn) : t =
  let order = Fn.rpo fn in
  let n = Support.Vec.length fn.blocks in
  let index = Array.make n (-1) in
  List.iteri (fun i b -> index.(b) <- i) order;
  let preds = Fn.preds fn in
  let idom = Array.make n (-1) in
  idom.(fn.entry) <- fn.entry;
  let rec intersect f1 f2 =
    if f1 = f2 then f1
    else if index.(f1) > index.(f2) then intersect idom.(f1) f2
    else intersect f1 idom.(f2)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> fn.entry then begin
          let processed =
            List.filter (fun x -> index.(x) >= 0 && idom.(x) >= 0) preds.(b)
          in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(b) <> new_idom then begin
                idom.(b) <- new_idom;
                changed := true
              end
        end)
      order
  done;
  let children =
    lazy
      (let ch = Array.make n [] in
       for b = n - 1 downto 0 do
         let p = idom.(b) in
         if p >= 0 && p <> b then ch.(p) <- b :: ch.(p)
       done;
       ch)
  in
  { order; preds; index; idom; children }

let in_range t b = b >= 0 && b < Array.length t.idom

let idom t b = if in_range t b && t.idom.(b) >= 0 then Some t.idom.(b) else None

(* Does [a] dominate [b]? Walks the idom chain from [b] to the entry. *)
let dominates t ~(a : bid) ~(b : bid) : bool =
  let rec up x =
    if x = a then true
    else
      let parent = t.idom.(x) in
      parent >= 0 && parent <> x && up parent
  in
  if in_range t b then up b else b = a

let children t (b : bid) : bid list =
  if in_range t b then (Lazy.force t.children).(b) else []

let rpo t = t.order
let preds t = t.preds
let reachable t b = in_range t b && t.index.(b) >= 0
let rpo_index t b = if in_range t b then t.index.(b) else -1
