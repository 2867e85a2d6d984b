(* Reference CFG analyses: the original hash-table implementations of the
   predecessor map, reverse postorder, dominator tree, loop forest and
   static block frequencies. They recompute everything per query and are
   slow, but they are the behaviour the array-backed kernels in [Ir] must
   reproduce exactly, including every iteration order a pass can observe.
   [mismatch] below compares the two. *)

open Ir.Types

let preds fn : (bid, bid list) Hashtbl.t =
  let t = Hashtbl.create 16 in
  Ir.Fn.iter_blocks (fun blk -> Hashtbl.replace t blk.b_id []) fn;
  Ir.Fn.iter_blocks
    (fun blk ->
      List.iter
        (fun s ->
          let old = try Hashtbl.find t s with Not_found -> [] in
          Hashtbl.replace t s (blk.b_id :: old))
        (Ir.Fn.succs_of_term blk.term))
    fn;
  Hashtbl.iter (fun k v -> Hashtbl.replace t k (List.rev v)) t;
  t

let rpo fn : bid list =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec go b =
    if not (Hashtbl.mem visited b) then begin
      Hashtbl.add visited b ();
      List.iter go (Ir.Fn.succs fn b);
      order := b :: !order
    end
  in
  go fn.entry;
  !order

let reachable fn : (bid, unit) Hashtbl.t =
  let t = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.add t b ()) (rpo fn);
  t

module Dominators = struct
  type t = {
    idom : (bid, bid) Hashtbl.t;
    order : bid list;
    index : (bid, int) Hashtbl.t;
  }

  let compute (fn : fn) : t =
    let order = rpo fn in
    let index = Hashtbl.create 16 in
    List.iteri (fun i b -> Hashtbl.replace index b i) order;
    let preds = preds fn in
    let idom = Hashtbl.create 16 in
    Hashtbl.replace idom fn.entry fn.entry;
    let intersect b1 b2 =
      let rec go f1 f2 =
        if f1 = f2 then f1
        else
          let i1 = Hashtbl.find index f1 and i2 = Hashtbl.find index f2 in
          if i1 > i2 then go (Hashtbl.find idom f1) f2 else go f1 (Hashtbl.find idom f2)
      in
      go b1 b2
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun b ->
          if b <> fn.entry then begin
            let ps =
              (try Hashtbl.find preds b with Not_found -> [])
              |> List.filter (fun x -> Hashtbl.mem index x)
            in
            let processed = List.filter (fun x -> Hashtbl.mem idom x) ps in
            match processed with
            | [] -> ()
            | first :: rest ->
                let new_idom = List.fold_left intersect first rest in
                if Hashtbl.find_opt idom b <> Some new_idom then begin
                  Hashtbl.replace idom b new_idom;
                  changed := true
                end
          end)
        order
    done;
    { idom; order; index }

  let idom t b = if b = -1 then None else Hashtbl.find_opt t.idom b

  let dominates t ~(a : bid) ~(b : bid) : bool =
    let rec up x =
      if x = a then true
      else
        match Hashtbl.find_opt t.idom x with
        | Some parent when parent <> x -> up parent
        | _ -> false
    in
    up b

  let children t (b : bid) : bid list =
    Hashtbl.fold
      (fun child parent acc -> if parent = b && child <> b then child :: acc else acc)
      t.idom []
    |> List.sort compare

  let rpo t = t.order
end

module Loops = struct
  type loop = { header : bid; body : (bid, unit) Hashtbl.t; back_edges : bid list }
  type t = { loops : loop list; depth : (bid, int) Hashtbl.t }

  let compute (fn : fn) : t =
    let doms = Dominators.compute fn in
    let preds = preds fn in
    let reachable = reachable fn in
    let by_header : (bid, bid list) Hashtbl.t = Hashtbl.create 8 in
    Ir.Fn.iter_blocks
      (fun blk ->
        if Hashtbl.mem reachable blk.b_id then
          List.iter
            (fun s ->
              if Hashtbl.mem reachable s && Dominators.dominates doms ~a:s ~b:blk.b_id then
                let old = try Hashtbl.find by_header s with Not_found -> [] in
                Hashtbl.replace by_header s (blk.b_id :: old))
            (Ir.Fn.succs fn blk.b_id))
      fn;
    let loops =
      Hashtbl.fold
        (fun header sources acc ->
          let body = Hashtbl.create 8 in
          Hashtbl.replace body header ();
          let rec pull b =
            if not (Hashtbl.mem body b) then begin
              Hashtbl.replace body b ();
              List.iter pull (try Hashtbl.find preds b with Not_found -> [])
            end
          in
          List.iter pull sources;
          { header; body; back_edges = sources } :: acc)
        by_header []
    in
    let depth = Hashtbl.create 16 in
    Ir.Fn.iter_blocks
      (fun blk ->
        let d =
          List.fold_left
            (fun acc l -> if Hashtbl.mem l.body blk.b_id then acc + 1 else acc)
            0 loops
        in
        Hashtbl.replace depth blk.b_id d)
      fn;
    { loops; depth }

  let depth t b = try Hashtbl.find t.depth b with Not_found -> 0
end

let static_freq (fn : fn) : (bid, float) Hashtbl.t =
  let loops = Loops.compute fn in
  let preds = preds fn in
  let order = rpo fn in
  let index = Hashtbl.create 16 in
  List.iteri (fun i b -> Hashtbl.replace index b i) order;
  let freq = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let f =
        if b = fn.entry then 1.0
        else
          (try Hashtbl.find preds b with Not_found -> [])
          |> List.filter (fun p -> Hashtbl.mem index p)
          |> List.fold_left
               (fun acc p ->
                 let back = Hashtbl.find index p >= Hashtbl.find index b in
                 if back then acc
                 else
                   let pf = try Hashtbl.find freq p with Not_found -> 0.0 in
                   let prob = match Ir.Fn.term fn p with If _ -> 0.5 | _ -> 1.0 in
                   acc +. (pf *. prob))
               0.0
      in
      Hashtbl.replace freq b f)
    order;
  List.iter
    (fun b ->
      let d = Loops.depth loops b in
      if d > 0 then
        Hashtbl.replace freq b
          ((try Hashtbl.find freq b with Not_found -> 0.0)
          *. (Ir.Freq.loop_multiplier ** float_of_int d)))
    order;
  freq

(* ---------- comparison against the kernels in [Ir] ---------- *)

let body_order (body : (bid, unit) Hashtbl.t) =
  Hashtbl.fold (fun b () acc -> b :: acc) body [] |> List.rev

let ints l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]"

(* The first difference between the reference analyses of [fn] and the
   array-backed ones, or None. Covers every block id (dead ones and one
   past the end included), so lookups at ids the reference had no entry
   for must agree too. *)
let mismatch (fn : fn) : string option =
  let n = Support.Vec.length fn.blocks in
  let ids = List.init (n + 2) (fun i -> i - 1) in
  let live_ids = List.filter (fun b -> b >= 0 && b < n) ids in
  let errors = ref [] in
  let check ok what = if not ok then errors := what () :: !errors in
  let pr = Printf.sprintf in
  let rpreds = preds fn and npreds = Ir.Fn.preds fn in
  List.iter
    (fun b ->
      let r = try Hashtbl.find rpreds b with Not_found -> [] in
      check (r = npreds.(b)) (fun () -> pr "preds b%d: %s vs %s" b (ints r) (ints npreds.(b))))
    live_ids;
  check (rpo fn = Ir.Fn.rpo fn) (fun () -> "rpo");
  let rreach = reachable fn and nreach = Ir.Fn.reachable fn in
  check (Array.length nreach = n) (fun () -> "reachable size");
  List.iter
    (fun b -> check (Hashtbl.mem rreach b = nreach.(b)) (fun () -> pr "reachable b%d" b))
    live_ids;
  let rd = Dominators.compute fn and nd = Ir.Dominators.compute fn in
  check (Dominators.rpo rd = Ir.Dominators.rpo nd) (fun () -> "dominators rpo");
  List.iter
    (fun b ->
      check (Dominators.idom rd b = Ir.Dominators.idom nd b) (fun () -> pr "idom b%d" b);
      let rc = Dominators.children rd b and nc = Ir.Dominators.children nd b in
      check (rc = nc) (fun () -> pr "children b%d: %s vs %s" b (ints rc) (ints nc));
      List.iter
        (fun a ->
          check
            (Dominators.dominates rd ~a ~b = Ir.Dominators.dominates nd ~a ~b)
            (fun () -> pr "dominates b%d b%d" a b))
        ids)
    ids;
  let rl = Loops.compute fn and nl = Ir.Loops.compute fn in
  let rh = List.map (fun (l : Loops.loop) -> l.header) rl.loops
  and nh = List.map (fun (l : Ir.Loops.loop) -> l.header) nl.loops in
  check (rh = nh) (fun () -> pr "loop headers %s vs %s" (ints rh) (ints nh));
  if rh = nh then
    List.iter2
      (fun (r : Loops.loop) (l : Ir.Loops.loop) ->
        check (r.back_edges = l.back_edges) (fun () -> pr "back edges of b%d" r.header);
        let rb = body_order r.body and nb = body_order l.body in
        check (rb = nb) (fun () -> pr "body order of b%d: %s vs %s" r.header (ints rb) (ints nb)))
      rl.loops nl.loops;
  List.iter
    (fun b -> check (Loops.depth rl b = Ir.Loops.depth nl b) (fun () -> pr "depth b%d" b))
    ids;
  let rf = static_freq fn and nf = Ir.Freq.static fn in
  let rfreq b = try Hashtbl.find rf b with Not_found -> 0.0 in
  let bits = Int64.bits_of_float in
  List.iter
    (fun b ->
      let r = rfreq b and f = Ir.Freq.block nf b in
      check (bits r = bits f) (fun () -> pr "static freq b%d: %h vs %h" b r f))
    ids;
  Ir.Fn.iter_blocks
    (fun blk ->
      List.iter
        (fun v ->
          check
            (bits (rfreq blk.b_id) = bits (Ir.Freq.of_instr nf v))
            (fun () -> pr "static freq of v%d" v))
        blk.instrs)
    fn;
  match List.rev !errors with [] -> None | e :: _ -> Some e
