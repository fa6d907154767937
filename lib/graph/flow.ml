(* Arc-array representation: arc 2k and 2k+1 are a forward/backward pair.
   [head.(a)] is the target of arc [a]; [cap.(a)] its residual capacity.
   Public arc ids are the even (forward) indices divided by 2. *)

type t = {
  n : int;
  mutable head : int array;
  mutable cap : int array;
  mutable cap0 : int array; (* original capacities, to reset between runs *)
  mutable first : int list array; (* arc ids out of each node, reversed *)
  mutable arcs : int; (* number of directed arc slots used *)
}

let infinite = max_int / 4

let create n =
  if n < 0 then invalid_arg "Flow.create";
  { n;
    head = Array.make 16 0;
    cap = Array.make 16 0;
    cap0 = Array.make 16 0;
    first = Array.make (max n 1) [];
    arcs = 0 }

let node_count t = t.n

let check t v =
  if v < 0 || v >= t.n then invalid_arg "Flow: node out of range"

let grow t =
  let len = Array.length t.head in
  if t.arcs + 2 > len then begin
    let len' = 2 * len in
    let extend a def =
      let a' = Array.make len' def in
      Array.blit a 0 a' 0 t.arcs;
      a'
    in
    t.head <- extend t.head 0;
    t.cap <- extend t.cap 0;
    t.cap0 <- extend t.cap0 0
  end

let add_edge t ~src ~dst ~cap =
  check t src;
  check t dst;
  if cap < 0 then invalid_arg "Flow.add_edge: negative capacity";
  grow t;
  let a = t.arcs in
  t.head.(a) <- dst;
  t.cap.(a) <- cap;
  t.cap0.(a) <- cap;
  t.head.(a + 1) <- src;
  t.cap.(a + 1) <- 0;
  t.cap0.(a + 1) <- 0;
  t.first.(src) <- a :: t.first.(src);
  t.first.(dst) <- (a + 1) :: t.first.(dst);
  t.arcs <- t.arcs + 2;
  a / 2

let reset t = Array.blit t.cap0 0 t.cap 0 t.arcs

let arc t id =
  let a = 2 * id in
  if a < 0 || a >= t.arcs then invalid_arg "Flow.arc";
  (t.head.(a + 1), t.head.(a), t.cap0.(a))

(* BFS levels over the residual graph. *)
let bfs_levels t s =
  let level = Array.make t.n (-1) in
  let queue = Queue.create () in
  level.(s) <- 0;
  Queue.add s queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun a ->
        let v = t.head.(a) in
        if t.cap.(a) > 0 && level.(v) < 0 then begin
          level.(v) <- level.(u) + 1;
          Queue.add v queue
        end)
      t.first.(u)
  done;
  level

let max_flow t ~s ~t:snk =
  check t s;
  check t snk;
  if s = snk then invalid_arg "Flow.max_flow: s = t";
  reset t;
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    let level = bfs_levels t s in
    if level.(snk) < 0 then continue := false
    else begin
      (* iter.(u): arcs of u not yet exhausted in this phase *)
      let iter = Array.make t.n [] in
      for u = 0 to t.n - 1 do
        iter.(u) <- t.first.(u)
      done;
      (* DFS for blocking flow, recursive on the level graph (depth <= n). *)
      let rec push u limit =
        if u = snk then limit
        else begin
          let sent = ref 0 in
          let exhausted = ref false in
          while (not !exhausted) && !sent < limit do
            match iter.(u) with
            | [] -> exhausted := true
            | a :: rest ->
              let v = t.head.(a) in
              if t.cap.(a) > 0 && level.(v) = level.(u) + 1 then begin
                let got = push v (min t.cap.(a) (limit - !sent)) in
                if got > 0 then begin
                  t.cap.(a) <- t.cap.(a) - got;
                  t.cap.(a lxor 1) <- t.cap.(a lxor 1) + got;
                  sent := !sent + got
                end
                else iter.(u) <- rest
              end
              else iter.(u) <- rest
          done;
          !sent
        end
      in
      let pushed = push s infinite in
      if pushed = 0 then continue := false else total := !total + pushed
    end
  done;
  !total

let max_flow_edmonds_karp t ~s ~t:snk =
  check t s;
  check t snk;
  if s = snk then invalid_arg "Flow.max_flow_edmonds_karp: s = t";
  reset t;
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    (* BFS recording the arc used to reach each node. *)
    let via = Array.make t.n (-1) in
    let seen = Array.make t.n false in
    seen.(s) <- true;
    let queue = Queue.create () in
    Queue.add s queue;
    while not (Queue.is_empty queue) && not seen.(snk) do
      let u = Queue.pop queue in
      List.iter
        (fun a ->
          let v = t.head.(a) in
          if t.cap.(a) > 0 && not seen.(v) then begin
            seen.(v) <- true;
            via.(v) <- a;
            Queue.add v queue
          end)
        t.first.(u)
    done;
    if not seen.(snk) then continue := false
    else begin
      (* Find bottleneck along the recorded path, then augment. *)
      let rec bottleneck v acc =
        if v = s then acc
        else
          let a = via.(v) in
          bottleneck t.head.(a lxor 1) (min acc t.cap.(a))
      in
      let rec augment v amount =
        if v <> s then begin
          let a = via.(v) in
          t.cap.(a) <- t.cap.(a) - amount;
          t.cap.(a lxor 1) <- t.cap.(a lxor 1) + amount;
          augment t.head.(a lxor 1) amount
        end
      in
      let b = bottleneck snk infinite in
      augment snk b;
      total := !total + b
    end
  done;
  !total

let min_cut t ~s ~t:snk =
  let value = max_flow t ~s ~t:snk in
  (* Residual reachability from s. *)
  let side = Array.make t.n false in
  let queue = Queue.create () in
  side.(s) <- true;
  Queue.add s queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun a ->
        let v = t.head.(a) in
        if t.cap.(a) > 0 && not side.(v) then begin
          side.(v) <- true;
          Queue.add v queue
        end)
      t.first.(u)
  done;
  let cut = ref [] in
  for id = 0 to (t.arcs / 2) - 1 do
    let a = 2 * id in
    let u = t.head.(a + 1) and v = t.head.(a) in
    if t.cap0.(a) > 0 && side.(u) && not side.(v) then cut := id :: !cut
  done;
  (value, side, List.rev !cut)
