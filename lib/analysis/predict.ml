open Bw_ir

let default_trips = 16
let elem_bytes = 8.0

let rec const_int (e : Ast.expr) =
  match e with
  | Ast.Int_lit n -> Some n
  | Ast.Unary (Ast.Neg, e) -> Option.map (fun n -> -n) (const_int e)
  | Ast.Binary (op, a, b) -> (
    match (const_int a, const_int b) with
    | Some a, Some b -> (
      match op with
      | Ast.Add -> Some (a + b)
      | Ast.Sub -> Some (a - b)
      | Ast.Mul -> Some (a * b)
      | Ast.Div -> if b = 0 then None else Some (a / b)
      | Ast.Mod -> if b = 0 then None else Some (a mod b)
      | Ast.Min -> Some (min a b)
      | Ast.Max -> Some (max a b))
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Trip-count estimation over an interval environment                  *)
(* ------------------------------------------------------------------ *)

type env = (string * (int * int)) list

let empty_env = []

(* Interval of an expression's value: affine forms evaluated over the
   index intervals, min/max handled structurally (Affine rejects them). *)
let rec interval env (e : Ast.expr) : (int * int) option =
  match e with
  | Ast.Binary (Ast.Min, a, b) -> lift2 min env a b
  | Ast.Binary (Ast.Max, a, b) -> lift2 max env a b
  | _ -> (
    match Affine.of_expr e with
    | None -> None
    | Some a ->
      List.fold_left
        (fun acc (v, c) ->
          match (acc, Ast_util.assoc_name v env) with
          | Some (lo, hi), Some (vlo, vhi) ->
            if c >= 0 then Some (lo + (c * vlo), hi + (c * vhi))
            else Some (lo + (c * vhi), hi + (c * vlo))
          | _ -> None)
        (Some (a.Affine.const, a.Affine.const))
        a.Affine.terms)

and lift2 f env a b =
  match (interval env a, interval env b) with
  | Some (alo, ahi), Some (blo, bhi) -> Some (f alo blo, f ahi bhi)
  | (Some _ as s), None | None, (Some _ as s) -> s
  | None, None -> None

(* Midpoint estimate of an affine form over the index intervals. *)
let affine_mid env (a : Affine.t) =
  List.fold_left
    (fun acc (v, c) ->
      match (acc, Ast_util.assoc_name v env) with
      | Some m, Some (vlo, vhi) ->
        Some (m +. (float_of_int c *. (float_of_int (vlo + vhi) /. 2.0)))
      | _ -> None)
    (Some (float_of_int a.Affine.const))
    a.Affine.terms

let opt2 f a b =
  match (a, b) with
  | Some x, Some y -> Some (f x y)
  | (Some _ as s), None | None, (Some _ as s) -> s
  | None, None -> None

(* Estimated value of [hi - lo].  The crucial case is the loop Tile
   introduces — [lo = Scalar t; hi = min (t + tile - 1) n] — where the
   affine difference cancels the shared symbolic origin exactly. *)
let rec span_est env ~lo ~hi =
  match hi with
  | Ast.Binary (Ast.Min, a, b) ->
    opt2 Float.min (span_est env ~lo ~hi:a) (span_est env ~lo ~hi:b)
  | Ast.Binary (Ast.Max, a, b) ->
    opt2 Float.max (span_est env ~lo ~hi:a) (span_est env ~lo ~hi:b)
  | _ -> (
    match lo with
    | Ast.Binary (Ast.Max, a, b) ->
      opt2 Float.min (span_est env ~lo:a ~hi) (span_est env ~lo:b ~hi)
    | Ast.Binary (Ast.Min, a, b) ->
      opt2 Float.max (span_est env ~lo:a ~hi) (span_est env ~lo:b ~hi)
    | _ -> (
      match (Affine.of_expr hi, Affine.of_expr lo) with
      | Some ah, Some al -> affine_mid env (Affine.sub ah al)
      | _ -> None))

let trips env (l : Ast.loop) =
  match (const_int l.Ast.lo, const_int l.Ast.hi, const_int l.Ast.step) with
  | Some lo, Some hi, Some step when step > 0 ->
    float_of_int (max 0 (((hi - lo) / step) + 1))
  | _ -> (
    match const_int l.Ast.step with
    | Some step when step > 0 -> (
      match span_est env ~lo:l.Ast.lo ~hi:l.Ast.hi with
      | Some span -> Float.max 0.0 ((span /. float_of_int step) +. 1.0)
      | None -> float_of_int default_trips)
    | _ -> (
      (* symbolic step over a known span: for an unknown step in
         [1, span] the trip count is span/step; the geometric midpoint
         sqrt(span) beats a fixed default by orders of magnitude on
         stage loops such as FFT's [step = le2] *)
      match span_est env ~lo:l.Ast.lo ~hi:l.Ast.hi with
      | Some span when span >= 0.0 -> Float.max 1.0 (Float.sqrt (span +. 1.0))
      | _ -> float_of_int default_trips))

let bind_loop env (l : Ast.loop) =
  match (interval env l.Ast.lo, interval env l.Ast.hi) with
  | Some (llo, _), Some (_, hhi) -> (l.Ast.index, (llo, max llo hhi)) :: env
  | _ -> env

(* ------------------------------------------------------------------ *)
(* Reference groups: per-array, per-loop reuse structure               *)
(* ------------------------------------------------------------------ *)

(* How one enclosing loop moves a reference group between iterations. *)
type move =
  | Fixed
      (** no subscript mentions the index: every iteration reuses the
          data *)
  | Irregular
      (** a non-affine subscript mentions the index, or an affine one goes
          through a scalar the loop body mutates *)
  | Strided of int  (** elements between consecutive iterations *)

(* One loop, shared by every group it encloses. *)
type loop = {
  l_trips : float;
  l_body : scope;
      (** the loop-body scope: its footprint is the reuse distance that
          repeated references see across iterations *)
}

(* A group of references to one array that touch the same data (equal
   affine subscript shape modulo constants), merged so that in-body
   reuse — a[i] read and written, or read at small offsets — is charged
   one line fetch, not several.  A group is built once, at its first
   reference [d] loops deep.  Each of those loops folds into it as the
   walk leaves the loop: it fills the loop's slot and substitutes the
   loop's index in [g_affine]. *)
and group = {
  g_array : string;
  g_id : int;  (** the array's slot in per-array sums *)
  g_decl_bytes : float;
  mutable g_reads : int;  (** element reads per innermost execution *)
  mutable g_writes : int;
  g_subs : Ast.expr list;
  g_affine : Affine.t option array;
      (** per subscript, its affine form with the indices of the loops
          left so far substituted *)
  g_regular : bool;  (** every subscript is affine *)
  g_dimprod : int array;  (** per-dim element multiplier (column-major) *)
  g_loops : loop array;  (** the [d] enclosing loops, innermost first *)
  g_moves : move array;  (** how each of [g_loops] moves the group *)
  mutable g_dedup_body : scope option;
      (** another group in the same scope covers the same data; charge
          this one only when that scope's footprint exceeds the cache *)
  mutable g_pos : int;  (** place in the scope {!dedup_scope} is at *)
  mutable g_next : group;
      (** the group before it of the same array in that scope *)
}

(* The groups of one scope, shared by every group it encloses.  Each of
   them asks how much of the scope a cache level holds, so the footprint
   is summed once per line size and remembered. *)
and scope = {
  s_groups : group list;
  s_depth : int;
      (** loops enclosing the scope.  A group built [d] loops deep had
          its [d - s_depth] innermost loops when the scope was taken;
          the loops left later fill the slots beyond. *)
  s_fp_lines : float array;
      (** lines, per cache level that is the first with its line size;
          nan until summed *)
}

let no_scope = { s_groups = []; s_depth = 0; s_fp_lines = [||] }
let no_loop = { l_trips = 0.0; l_body = no_scope }

let rec no_group =
  { g_array = "";
    g_id = -1;
    g_decl_bytes = 0.0;
    g_reads = 0;
    g_writes = 0;
    g_subs = [];
    g_affine = [||];
    g_regular = true;
    g_dimprod = [||];
    g_loops = [||];
    g_moves = [||];
    g_dedup_body = None;
    g_pos = -1;
    g_next = no_group }

(* The loops [g] had in a scope [depth] loops deep. *)
let view g ~depth = Array.length g.g_loops - depth

(* What the walk needs of a name, computed once per prediction and passed
   down (never kept in the module: predictions run concurrently on
   serve's pool domains).  A name used as an array without a declaration
   gets an undeclared entry at its first reference. *)
type fact = {
  f_id : int;  (** the name's slot in per-array sums *)
  f_bytes : float;
  f_dimprod : int array;
  f_float : bool;
  f_declared : bool;
}

let rec fill_dimprod prods k acc = function
  | [] -> ()
  | extent :: rest ->
    prods.(k) <- acc;
    fill_dimprod prods (k + 1) (acc * extent) rest

(* One prediction's state.  [flops] and the two name lists follow the
   walk; the other fields are fixed once it starts. *)
type ctx = {
  facts : fact Ast_util.Names.t;
  mutable ids : int;  (** slots handed out *)
  n_levels : int;  (** the machine's cache levels *)
  flops : float array;
      (** one cell: the flop count of the statement list being walked *)
  mutable written : string list;
      (** scalars written so far, by assignment or input, last first *)
  mutable indices : string list;  (** indices of the loops left so far *)
  mutable heads : group array;
      (** per slot, the last group of the array in the scope
          {!dedup_scope} is at; [no_group] between scopes *)
}

let make_ctx (p : Ast.program) ~n_levels =
  let facts = Ast_util.Names.create 16 in
  List.iteri
    (fun i (d : Ast.decl) ->
      let prods = Array.make (List.length d.Ast.dims) 1 in
      fill_dimprod prods 0 1 d.Ast.dims;
      Ast_util.Names.replace facts d.Ast.var_name
        { f_id = i;
          f_bytes = float_of_int (Ast.decl_bytes d);
          f_dimprod = prods;
          f_float = d.Ast.dtype = Ast.F64;
          f_declared = true })
    p.Ast.decls;
  { facts;
    ids = List.length p.Ast.decls;
    n_levels;
    flops = [| 0.0 |];
    written = [];
    indices = [];
    heads = [||] }

let array_fact ctx name =
  match Ast_util.Names.find ctx.facts name with
  | f -> f
  | exception Not_found ->
    let f =
      { f_id = ctx.ids;
        f_bytes = infinity;
        f_dimprod = [||];
        f_float = true;
        f_declared = false }
    in
    ctx.ids <- ctx.ids + 1;
    Ast_util.Names.replace ctx.facts name f;
    f

(* Equal terms at every subscript from [d] on. *)
let rec same_forms a1 a2 d =
  d = Array.length a1
  || (match (a1.(d), a2.(d)) with
     | Some f1, Some f2 -> Affine.equal_terms f1.Affine.terms f2.Affine.terms
     | _ -> false)
     && same_forms a1 a2 (d + 1)

(* Two groups address the same data when they name the same array with
   the same affine shape (constants may differ: a[i] and a[i-1] share
   lines).  Non-affine subscripts match only when syntactically equal.
   [same_shape_as g ...] compares [g] with a reference not yet grouped;
   the arrays are compared by slot. *)
let same_shape_as g id subs affine regular =
  g.g_id = id
  &&
  if g.g_regular && regular then
    Array.length g.g_affine = Array.length affine
    && same_forms g.g_affine affine 0
  else
    (not g.g_regular) && (not regular)
    && List.equal Ast.equal_expr g.g_subs subs

let same_shape g1 g2 =
  same_shape_as g1 g2.g_id g2.g_subs g2.g_affine g2.g_regular

(* Products over the loops [g] had in a scope [depth] deep, outermost
   first. *)
let[@inline] total_iters g ~depth =
  let acc = ref 1.0 in
  for k = view g ~depth - 1 downto 0 do
    acc := !acc *. g.g_loops.(k).l_trips
  done;
  !acc

let[@inline] contrib_elems g ~depth =
  let acc = ref 1.0 in
  for k = view g ~depth - 1 downto 0 do
    match g.g_moves.(k) with
    | Fixed -> ()
    | Irregular | Strided _ -> acc := !acc *. g.g_loops.(k).l_trips
  done;
  !acc

(* Distinct bytes a group touches over its contributing loops
   (element-dense; reported as the program footprint). *)
let group_unique_bytes g =
  Float.min (contrib_elems g ~depth:0 *. elem_bytes) g.g_decl_bytes

let[@inline] spatial_fraction ~line = function
  | Strided s ->
    let s = Float.abs (float_of_int s) *. elem_bytes in
    if s > 0.0 && s < line then s /. line else 1.0
  | Fixed | Irregular -> 1.0

(* Distinct cache lines the group covers at [line]-byte granularity:
   elements of a dense run share lines, while strided and irregular
   elements occupy one line each — the reason a scattered working set
   overflows a cache its element count says should hold it.  The spatial
   fraction applies only at the innermost contributing loop: outer loops
   either continue the dense run (tile loops) or jump whole lines, and
   the declaration clamp catches run overlap either way. *)
let[@inline] covered_lines g ~depth ~line =
  let decl_lines = Float.max 1.0 (g.g_decl_bytes /. line) in
  let cov = ref 1.0 and innermost = ref true in
  for k = 0 to view g ~depth - 1 do
    match g.g_moves.(k) with
    | Fixed -> ()
    | move ->
      let f = if !innermost then spatial_fraction ~line move else 1.0 in
      cov := Float.min (!cov *. g.g_loops.(k).l_trips *. f) decl_lines;
      innermost := false
  done;
  Float.max 1.0 (Float.min !cov decl_lines)

(* ------------------------------------------------------------------ *)
(* Per-array sums                                                      *)
(* ------------------------------------------------------------------ *)

(* A footprint is per array the max over its groups (they overlap the
   same storage), summed across arrays.  The arrays are summed in the
   order a fresh [Names] table of them folds in, which float addition
   makes part of the result; one table is reset for every sum, and the
   maxima are kept by array slot. *)
type sums = {
  order : int Ast_util.Names.t;
  maxes : float array;
  noted : int array;  (** per slot, the sum that last noted it *)
  mutable sum_no : int;
  total : float array;
  add : string -> int -> unit;
}

let make_sums ctx =
  let maxes = Array.make ctx.ids 0.0 and total = [| 0.0 |] in
  { order = Ast_util.Names.create 16;
    maxes;
    noted = Array.make ctx.ids (-1);
    sum_no = 0;
    total;
    add = (fun _ slot -> total.(0) <- total.(0) +. maxes.(slot)) }

let start_sum sums =
  sums.sum_no <- sums.sum_no + 1;
  Ast_util.Names.reset sums.order

let[@inline] note sums g v =
  let slot = g.g_id in
  if sums.noted.(slot) = sums.sum_no then
    sums.maxes.(slot) <- Float.max sums.maxes.(slot) v
  else begin
    sums.noted.(slot) <- sums.sum_no;
    sums.maxes.(slot) <- Float.max 0.0 v;
    Ast_util.Names.replace sums.order g.g_array slot
  end

let finish_sum sums =
  sums.total.(0) <- 0.0;
  Ast_util.Names.iter sums.add sums.order;
  sums.total.(0)

(* Footprint at line granularity of the [groups] that [keep] holds, a
   scope [depth] deep. *)
let fp_lines sums groups ~depth ~line keep =
  start_sum sums;
  List.iter
    (fun g -> if keep g then note sums g (covered_lines g ~depth ~line))
    groups;
  finish_sum sums

let every _ = true

(* One cache level as the miss model sees it. *)
type cache = {
  c_bytes : float;  (** capacity *)
  c_line : float;
  c_line_ix : int;  (** the first level with this line size *)
  c_ways : float option;
      (** associativity; [None] when pages are placed at random, which
          fills the sets unevenly *)
}

(* The share of a [bytes] footprint's revisits that hit in [cache].
   Spread evenly over LRU sets of A ways, F lines over C = S x A fill
   every set, and the F - C sets holding A + 1 lines thrash: all their
   lines miss, every other line hits.  So the share falls from 1 at
   F = C to 0 at F = C (1 + 1/A), where every set is overfull.  Random
   placement keeps the all-or-nothing test: its sets overflow unevenly
   well below C, and the even-spread share would overstate its hits. *)
let[@inline] hit_share cache bytes =
  if bytes <= cache.c_bytes then 1.0
  else
    match cache.c_ways with
    | None -> 0.0
    | Some ways ->
      let excess = bytes -. cache.c_bytes in
      if excess *. ways >= cache.c_bytes then 0.0
      else 1.0 -. (excess *. (ways +. 1.0) /. bytes)

let scope_share sums scope cache =
  let line = cache.c_line in
  let ix = cache.c_line_ix in
  if Float.is_nan scope.s_fp_lines.(ix) then
    scope.s_fp_lines.(ix) <-
      fp_lines sums scope.s_groups ~depth:scope.s_depth ~line every;
  hit_share cache (scope.s_fp_lines.(ix) *. line)

(* ------------------------------------------------------------------ *)
(* Collecting groups from the program                                  *)
(* ------------------------------------------------------------------ *)

(* The groups of the scope being walked, merged as they arrive: the
   unsealed ones (no loop left yet) by shape into families, last first;
   the sealed ones last first too. *)
type acc = {
  mutable families : group list;
  mutable sealed : group list;
}

let rec find_family id subs affine regular = function
  | [] -> raise Not_found
  | h :: rest ->
    if same_shape_as h id subs affine regular then h
    else find_family id subs affine regular rest

(* A family whose first reference has exactly these subscripts has
   their shape, so the affine forms need not be built. *)
let rec find_spelling id subs = function
  | [] -> raise Not_found
  | h :: rest ->
    if h.g_id = id && List.equal Ast.equal_expr h.g_subs subs then h
    else find_spelling id subs rest

let rec fill_affine affine d regular = function
  | [] -> regular
  | e :: rest ->
    let f = Affine.of_expr e in
    affine.(d) <- f;
    fill_affine affine (d + 1) (regular && Option.is_some f) rest

let count h ~reads ~writes =
  h.g_reads <- h.g_reads + reads;
  h.g_writes <- h.g_writes + writes

(* A reference [depth] loops deep joins the family of its shape, or
   starts one.  Returns the array's fact. *)
let add_ref ctx ~depth acc array subs ~write =
  let fact = array_fact ctx array in
  let reads = if write then 0 else 1 and writes = if write then 1 else 0 in
  (match find_spelling fact.f_id subs acc.families with
  | h -> count h ~reads ~writes
  | exception Not_found -> (
    let affine = Array.make (List.length subs) None in
    let regular = fill_affine affine 0 true subs in
    match find_family fact.f_id subs affine regular acc.families with
    | h -> count h ~reads ~writes
    | exception Not_found ->
      acc.families <-
        { g_array = array;
          g_id = fact.f_id;
          g_decl_bytes = fact.f_bytes;
          g_reads = reads;
          g_writes = writes;
          g_subs = subs;
          g_affine = affine;
          g_regular = regular;
          g_dimprod = fact.f_dimprod;
          g_loops = Array.make depth no_loop;
          g_moves = Array.make depth Fixed;
          g_dedup_body = None;
          g_pos = -1;
          g_next = no_group }
        :: acc.families));
  fact

(* A group of an [If] arm joins the scope around the [If] as a reference
   would, unless a loop already sealed it. *)
let add_group ~depth acc g =
  if view g ~depth > 0 then acc.sealed <- g :: acc.sealed
  else
    match find_family g.g_id g.g_subs g.g_affine g.g_regular acc.families with
    | h -> count h ~reads:g.g_reads ~writes:g.g_writes
    | exception Not_found -> acc.families <- g :: acc.families

(* [g] is preferred to [h] as a family's representative: it covers more
   elements, or as many over more iterations. *)
let wider g h ~depth =
  let cg = contrib_elems g ~depth and ch = contrib_elems h ~depth in
  cg > ch || (cg = ch && total_iters g ~depth > total_iters h ~depth)

let eligible g = Option.is_none g.g_dedup_body

(* The rest of [g]'s family is among the groups of its array after it,
   which its array's chain lists last first from [h]: those an earlier
   family did not take, of [g]'s shape. *)
let[@inline] member g h = eligible h && same_shape g h

let rec has_family g h =
  h.g_pos > g.g_pos && (member g h || has_family g h.g_next)

(* The widest of the family, the first among equals when the members
   are taken [g] first, then the later ones last first. *)
let rec representative g best ~depth h =
  if h.g_pos <= g.g_pos then best
  else
    representative g
      (if member g h && wider h best ~depth then h else best)
      ~depth h.g_next

let rec shadow g ~rep mark h =
  if h.g_pos > g.g_pos then begin
    if h != rep && member g h then h.g_dedup_body <- mark;
    shadow g ~rep mark h.g_next
  end

(* Threads the scope's groups onto their arrays' chains; true when some
   array has more than one group, the only way a family can form. *)
let rec chain heads pos repeated = function
  | [] -> repeated
  | g :: rest ->
    let prev = heads.(g.g_id) in
    g.g_pos <- pos;
    g.g_next <- prev;
    heads.(g.g_id) <- g;
    chain heads (pos + 1) (repeated || prev != no_group) rest

let rec unchain heads = function
  | [] -> ()
  | g :: rest ->
    heads.(g.g_id) <- no_group;
    unchain heads rest

(* Same-scope groups covering the same data — an initialising store next
   to the accumulation loop that rereads it — would be double-charged.
   Keep the widest of each family as the representative; the rest are
   charged only when the scope's footprint exceeds the cache, mirroring
   the short-distance reuse they enjoy in reality.  Only groups of one
   array can share a shape, so each group is compared along its array's
   chain, not with the whole scope. *)
let dedup_scope ctx ~depth groups =
  if Array.length ctx.heads < ctx.ids then
    ctx.heads <- Array.make ctx.ids no_group;
  let heads = ctx.heads in
  (if chain heads 0 false groups then
     let mark = ref None in
     List.iter
       (fun g ->
         let later = heads.(g.g_id) in
         if eligible g && has_family g later then begin
           let rep = representative g g ~depth later in
           let rep = if wider g rep ~depth then g else rep in
           let m =
             match !mark with
             | Some _ as m -> m
             | None ->
               let m =
                 Some
                   { s_groups = groups;
                     s_depth = depth;
                     s_fp_lines = Array.make ctx.n_levels nan }
               in
               mark := m;
               m
           in
           shadow g ~rep m later;
           if g != rep then g.g_dedup_body <- m
         end)
       groups);
  unchain heads groups

(* The scope's groups: the families last first, then the sealed groups
   in order.  Later sums run over this order, so it must not change. *)
let close_scope ctx ~depth acc =
  let groups =
    match (acc.families, acc.sealed) with
    | families, [] -> families
    | [], sealed -> List.rev sealed
    | families, sealed -> families @ List.rev sealed
  in
  dedup_scope ctx ~depth groups;
  groups

(* Does [e] read the name [v] (a scalar or an array)? *)
let rec reads_name v (e : Ast.expr) =
  match e with
  | Ast.Int_lit _ | Ast.Float_lit _ -> false
  | Ast.Scalar s -> String.equal s v
  | Ast.Element (a, idxs) -> String.equal a v || reads_any v idxs
  | Ast.Unary (_, a) -> reads_name v a
  | Ast.Binary (_, a, b) -> reads_name v a || reads_name v b
  | Ast.Call (_, args) -> reads_any v args

and reads_any v = function
  | [] -> false
  | e :: rest -> reads_name v e || reads_any v rest

let rec drop_name v = function
  | [] -> []
  | ((name, _) as term) :: rest ->
    if String.equal name v then drop_name v rest else term :: drop_name v rest

(* Substituting the wrapped index by its lower bound's affine form is
   what makes tile loops contribute: the element loop's subscript [i]
   never mentions the tile origin [ii], but [i] starts at [ii], so after
   the inner wrap the subscript's coefficients transfer to [ii].  [c] is
   [f]'s non-zero coefficient of [index]. *)
let subst_index index c lo_affine (f : Affine.t) =
  let dropped = { f with Affine.terms = drop_name index f.Affine.terms } in
  match lo_affine with
  | Some { Affine.terms = []; const = lo } ->
    { dropped with const = dropped.const + (c * lo) }
  | Some lo -> Affine.add dropped (Affine.scale c lo)
  | None -> dropped

(* How one step of [index] moves the group, from its subscripts as they
   are before the loop folds in: the stride in elements under
   column-major layout, or [Irregular] when a non-affine subscript
   mentions the index.  Each affine subscript that mentions the index has
   it substituted on the way. *)
let rec fold_index g index ~step lo_affine d subs stride irregular =
  match subs with
  | [] ->
    if irregular then Irregular
    else if stride = 0 then Fixed
    else Strided (stride * step)
  | s :: rest -> (
    let p = if d < Array.length g.g_dimprod then g.g_dimprod.(d) else 1 in
    match g.g_affine.(d) with
    | Some f ->
      let c = Affine.coeff f index in
      if c <> 0 then g.g_affine.(d) <- Some (subst_index index c lo_affine f);
      fold_index g index ~step lo_affine (d + 1) rest (stride + (c * p))
        irregular
    | None ->
      fold_index g index ~step lo_affine (d + 1) rest stride
        (irregular || reads_name index s))

let rec mentions_any mutated = function
  | [] -> false
  | (v, _) :: rest -> Ast_util.mem_name v mutated || mentions_any mutated rest

(* An affine subscript through a scalar the loop body itself mutates
   (FFT's [ib], [ip]) moves unpredictably within the loop: irregular. *)
let rec mentions_mutated mutated affine d =
  d < Array.length affine
  && ((match affine.(d) with
      | Some { Affine.terms = _ :: _ as terms; _ } ->
        mentions_any mutated terms
      | Some _ | None -> false)
     || mentions_mutated mutated affine (d + 1))

(* The scalars loop [index]'s body wrote (the names pushed on
   [ctx.written] since [written]), each once, less the body's own loop
   indices (pushed on [ctx.indices] since [indices]) and [index]. *)
let mutated ctx ~written ~indices index =
  let rec inner_index v l =
    l != indices
    && match l with x :: rest -> String.equal x v || inner_index v rest | [] -> false
  in
  let rec go l acc =
    if l == written then acc
    else
      match l with
      | v :: rest ->
        go rest
          (if
             Ast_util.mem_name v acc || String.equal v index
             || inner_index v ctx.indices
           then acc
           else v :: acc)
      | [] -> acc
  in
  go ctx.written []

(* The walk leaves loop [l], [depth] loops deep: each group of its body
   takes the loop into its slot and joins the enclosing scope sealed. *)
let wrap_loop ctx (l : Ast.loop) tcount ~depth ~written ~indices body acc =
  let loop =
    { l_trips = tcount;
      l_body =
        { s_groups = body;
          s_depth = depth;
          s_fp_lines = Array.make ctx.n_levels nan } }
  in
  let index = l.Ast.index in
  let step = abs (Option.value ~default:1 (const_int l.Ast.step)) in
  let lo_affine = Affine.of_expr l.Ast.lo in
  let mutated =
    if ctx.written == written then [] else mutated ctx ~written ~indices index
  in
  List.iter
    (fun g ->
      let k = view g ~depth in
      let irregular =
        match mutated with
        | [] -> false
        | _ :: _ -> mentions_mutated mutated g.g_affine 0
      in
      let move = fold_index g index ~step lo_affine 0 g.g_subs 0 false in
      g.g_loops.(k) <- loop;
      g.g_moves.(k) <- (if irregular then Irregular else move);
      acc.sealed <- g :: acc.sealed)
    body

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

(* One pass over the program builds the groups and counts the flops,
   mirroring Interp's sink: only float arithmetic and intrinsic calls
   are flops; integer subscript arithmetic and Int_to_float are not.
   An expression's walk returns its flop count times two, plus one when
   its value is a float; a scalar's type is looked up only when an
   operator needs it ({!operand_float}).  The counts are integers, so
   they sum exactly. *)

let operand_float ctx (e : Ast.expr) code =
  code land 1 = 1
  ||
  match e with
  | Ast.Scalar s -> (
    match Ast_util.Names.find ctx.facts s with
    | f -> f.f_declared && f.f_float
    | exception Not_found -> false (* loop index *))
  | _ -> false

let[@inline] arith flops is_float =
  let bit = if is_float then 1 else 0 in
  ((flops + bit) * 2) + bit

(* The expression's references join [acc], in pre-order. *)
let rec walk_expr ctx ~depth acc (e : Ast.expr) =
  match e with
  | Ast.Int_lit _ | Ast.Scalar _ -> 0
  | Ast.Float_lit _ -> 1
  | Ast.Element (a, subs) ->
    let fact = add_ref ctx ~depth acc a subs ~write:false in
    (walk_exprs ctx ~depth acc 0 subs * 2) + if fact.f_float then 1 else 0
  | Ast.Unary (Ast.Int_to_float, a) -> walk_expr ctx ~depth acc a lor 1
  | Ast.Unary (_, a) ->
    let ca = walk_expr ctx ~depth acc a in
    arith (ca lsr 1) (operand_float ctx a ca)
  | Ast.Binary (_, a, b) ->
    let ca = walk_expr ctx ~depth acc a in
    let cb = walk_expr ctx ~depth acc b in
    arith ((ca lsr 1) + (cb lsr 1))
      (operand_float ctx a ca || operand_float ctx b cb)
  | Ast.Call (_, args) -> ((1 + walk_exprs ctx ~depth acc 0 args) * 2) + 1

(* The flops of [es], added to [flops]. *)
and walk_exprs ctx ~depth acc flops = function
  | [] -> flops
  | e :: rest ->
    let flops = flops + (walk_expr ctx ~depth acc e lsr 1) in
    walk_exprs ctx ~depth acc flops rest

let rec walk_cond ctx ~depth acc (c : Ast.cond) =
  match c with
  | Ast.Cmp (_, a, b) ->
    let fa = walk_expr ctx ~depth acc a lsr 1 in
    fa + (walk_expr ctx ~depth acc b lsr 1)
  | Ast.And (a, b) | Ast.Or (a, b) ->
    let fa = walk_cond ctx ~depth acc a in
    fa + walk_cond ctx ~depth acc b
  | Ast.Not a -> walk_cond ctx ~depth acc a

let walk_lvalue ctx ~depth acc (lv : Ast.lvalue) =
  match lv with
  | Ast.Lscalar v ->
    ctx.written <- v :: ctx.written;
    0
  | Ast.Lelement (a, subs) ->
    ignore (add_ref ctx ~depth acc a subs ~write:true);
    walk_exprs ctx ~depth acc 0 subs

(* Each statement list's flops are summed from 0 in [ctx.flops], and its
   total is added to the enclosing list's sum where the list's statement
   comes. *)
let add_flops ctx mult flops =
  ctx.flops.(0) <- ctx.flops.(0) +. (mult *. float_of_int flops)

let rec walk_stmts ctx env ~depth ~mult stmts =
  let acc = { families = []; sealed = [] } in
  ctx.flops.(0) <- 0.0;
  walk_list ctx env ~depth ~mult acc stmts;
  close_scope ctx ~depth acc

and walk_list ctx env ~depth ~mult acc = function
  | [] -> ()
  | s :: rest ->
    walk_stmt ctx env ~depth ~mult acc s;
    walk_list ctx env ~depth ~mult acc rest

and walk_stmt ctx env ~depth ~mult acc (s : Ast.stmt) =
  match s with
  | Ast.Assign (lv, e) ->
    let fe = walk_expr ctx ~depth acc e lsr 1 in
    add_flops ctx mult (fe + walk_lvalue ctx ~depth acc lv)
  | Ast.Read_input lv -> add_flops ctx mult (walk_lvalue ctx ~depth acc lv)
  | Ast.Print e -> add_flops ctx mult (walk_expr ctx ~depth acc e lsr 1)
  | Ast.If (c, t, e) ->
    (* both arms charged: the model has no branch probabilities *)
    let outer = ctx.flops.(0) in
    let fc = mult *. float_of_int (walk_cond ctx ~depth acc c) in
    let t = walk_stmts ctx env ~depth ~mult t in
    let ft = ctx.flops.(0) in
    List.iter (add_group ~depth acc) t;
    let e = walk_stmts ctx env ~depth ~mult e in
    let fe = ctx.flops.(0) in
    List.iter (add_group ~depth acc) e;
    ctx.flops.(0) <- outer +. (fc +. ft +. fe)
  | Ast.For l ->
    let outer = ctx.flops.(0) in
    (* references in the bounds count flops but are not charged *)
    let bounds = { families = []; sealed = [] } in
    let fh =
      mult
      *. float_of_int
           (walk_exprs ctx ~depth bounds 0 [ l.Ast.lo; l.Ast.hi; l.Ast.step ])
    in
    let t = trips env l in
    let written = ctx.written and indices = ctx.indices in
    let body =
      walk_stmts ctx (bind_loop env l) ~depth:(depth + 1) ~mult:(mult *. t)
        l.Ast.body
    in
    ctx.flops.(0) <- outer +. (fh +. ctx.flops.(0));
    wrap_loop ctx l t ~depth:(depth + 1) ~written ~indices body acc;
    ctx.indices <- l.Ast.index :: ctx.indices

(* ------------------------------------------------------------------ *)
(* Miss model                                                          *)
(* ------------------------------------------------------------------ *)

(* Lines fetched by one group at a cache level, walking its loops from
   the innermost out and tracking (misses, distinct lines covered).
   Each reuse hits with the {!hit_share} h of its reuse distance, the
   footprint of the loop body:

   - a non-contributing loop repeats the inner reference pattern; the
     first pass misses, the repetitions miss a (1 - h) share;
   - a contributing loop multiplies both, scaled by the spatial fraction
     of its stride; once coverage saturates the array, further
     iterations revisit old lines, and an h share of them hits (for
     irregular loops h also takes in the share of the array's covered
     lines, since revisits land far apart);
   - a group another one in its scope covers misses only the (1 - h)
     share of its lines.

   At h = 1 and h = 0 the arithmetic is the all-or-nothing test's. *)
let walk_misses sums g cache =
  let line = cache.c_line in
  let decl_lines = Float.max 1.0 (g.g_decl_bytes /. line) in
  let m = ref 1.0 and cov = ref 1.0 and innermost = ref true in
  for k = 0 to Array.length g.g_loops - 1 do
    let l = g.g_loops.(k) in
    match g.g_moves.(k) with
    | Fixed ->
      let h = scope_share sums l.l_body cache in
      if h = 0.0 then m := !m *. l.l_trips
      else if h < 1.0 then
        m := !m *. (1.0 +. ((l.l_trips -. 1.0) *. (1.0 -. h)))
    | move ->
      let f = if !innermost then spatial_fraction ~line move else 1.0 in
      let fresh = !cov *. l.l_trips *. f in
      let cov' = Float.min fresh decl_lines in
      m := !m *. l.l_trips *. f;
      if fresh > decl_lines then begin
        let h =
          scope_share sums l.l_body cache
          *.
          match move with
          | Irregular -> hit_share cache (cov' *. line)
          | Fixed | Strided _ -> 1.0
        in
        m := !m *. ((h *. decl_lines /. fresh) +. (1.0 -. h))
      end;
      cov := cov';
      innermost := false
  done;
  Float.max 1.0 !m

let group_misses sums g cache =
  match g.g_dedup_body with
  | None -> walk_misses sums g cache
  | Some scope ->
    let h = scope_share sums scope cache in
    if h = 1.0 then 0.0 else (1.0 -. h) *. walk_misses sums g cache

(* ------------------------------------------------------------------ *)
(* Prediction                                                          *)
(* ------------------------------------------------------------------ *)

type level = {
  capacity_bytes : int;
  line_bytes : int;
  lines_in : float;
  lines_out : float;
}

type t = {
  flops : float;
  loads : float;
  stores : float;
  footprint_bytes : float;
  levels : level list;
  memory_bytes_in : float;
  memory_bytes_out : float;
  cpu_seconds : float;
  register_seconds : float;
  boundary_seconds : (string * float) list;
  seconds : float;
  binding_resource : string;
}

let memory_bytes t = t.memory_bytes_in +. t.memory_bytes_out

(* [f] summed over the groups, in order. *)
let[@inline] sum_over groups f =
  let acc = ref 0.0 in
  for i = 0 to Array.length groups - 1 do
    acc := !acc +. f groups.(i)
  done;
  !acc

let level_traffic sums top groups ~write_policy ~cache =
  let linef = cache.c_line in
  let capf = cache.c_bytes in
  let write_allocate = write_policy = Bw_machine.Cache.Write_back in
  let reads g = g.g_reads > 0 || (g.g_writes > 0 && write_allocate) in
  let writes g = g.g_writes > 0 in
  let write_through_lines () =
    sum_over groups (fun g ->
        float_of_int g.g_writes *. total_iters g ~depth:0 *. elem_bytes)
    /. linef
  in
  let lines = fp_lines sums top ~depth:0 ~line:linef in
  if lines every *. linef <= capf then begin
    (* everything fits: compulsory misses only — one fetch per distinct
       line of each accessed array, one writeback per written line *)
    let lines_in = lines reads in
    let lines_out =
      match write_policy with
      | Bw_machine.Cache.Write_back -> lines writes
      | Bw_machine.Cache.Write_through -> write_through_lines ()
    in
    (lines_in, lines_out)
  end
  else begin
    let sum pred =
      let acc = ref 0.0 in
      for i = 0 to Array.length groups - 1 do
        let g = groups.(i) in
        if pred g then acc := !acc +. group_misses sums g cache
      done;
      !acc
    in
    let lines_in = sum reads in
    let lines_out =
      match write_policy with
      | Bw_machine.Cache.Write_back -> sum writes
      | Bw_machine.Cache.Write_through -> write_through_lines ()
    in
    (lines_in, lines_out)
  end

let predict ~(machine : Bw_machine.Machine.t) (p : Ast.program) =
  let caches = Array.of_list machine.Bw_machine.Machine.caches in
  (* a level's footprints are remembered under the first level with its
     line size *)
  let line_ix i =
    let line = caches.(i).Bw_machine.Cache.line_bytes in
    let rec first j =
      if caches.(j).Bw_machine.Cache.line_bytes = line then j else first (j + 1)
    in
    first 0
  in
  let ctx = make_ctx p ~n_levels:(Array.length caches) in
  let top = walk_stmts ctx empty_env ~depth:0 ~mult:1.0 p.Ast.body in
  let flops = ctx.flops.(0) in
  let groups = Array.of_list top in
  let sums = make_sums ctx in
  let loads =
    sum_over groups (fun g ->
        float_of_int g.g_reads *. total_iters g ~depth:0)
  in
  let stores =
    sum_over groups (fun g ->
        float_of_int g.g_writes *. total_iters g ~depth:0)
  in
  let footprint_bytes =
    start_sum sums;
    Array.iter (fun g -> note sums g (group_unique_bytes g)) groups;
    finish_sum sums
  in
  let even_sets =
    match machine.Bw_machine.Machine.paging with
    | Bw_machine.Machine.Contiguous -> true
    | Bw_machine.Machine.Random_pages _ -> false
  in
  let levels =
    List.mapi
      (fun i (geo : Bw_machine.Cache.geometry) ->
        let cache =
          { c_bytes = float_of_int geo.Bw_machine.Cache.size_bytes;
            c_line = float_of_int geo.Bw_machine.Cache.line_bytes;
            c_line_ix = line_ix i;
            c_ways =
              (if even_sets then
                 Some (float_of_int geo.Bw_machine.Cache.associativity)
               else None) }
        in
        let lines_in, lines_out =
          level_traffic sums top groups
            ~write_policy:machine.Bw_machine.Machine.cache_write_policy
            ~cache
        in
        { capacity_bytes = geo.Bw_machine.Cache.size_bytes;
          line_bytes = geo.Bw_machine.Cache.line_bytes;
          lines_in;
          lines_out })
      machine.Bw_machine.Machine.caches
  in
  let memory_bytes_in, memory_bytes_out =
    match List.rev levels with
    | last :: _ ->
      ( last.lines_in *. float_of_int last.line_bytes,
        last.lines_out *. float_of_int last.line_bytes )
    | [] -> (loads *. elem_bytes, stores *. elem_bytes)
  in
  let cpu_seconds = flops /. machine.Bw_machine.Machine.flops_per_sec in
  let register_seconds =
    (loads +. stores) *. elem_bytes
    /. machine.Bw_machine.Machine.register_bandwidth
  in
  let n_levels = List.length levels in
  let boundary_name i =
    if i = n_levels - 1 then "Mem-L" ^ string_of_int (i + 1)
    else "L" ^ string_of_int (i + 2) ^ "-L" ^ string_of_int (i + 1)
  in
  let bandwidths = Array.of_list machine.Bw_machine.Machine.cache_bandwidths in
  let boundary_seconds =
    List.mapi
      (fun i lvl ->
        let linef = float_of_int lvl.line_bytes in
        let bytes =
          if i = n_levels - 1 then
            (lvl.lines_in *. linef)
            +. machine.Bw_machine.Machine.writeback_penalty
               *. lvl.lines_out *. linef
          else (lvl.lines_in +. lvl.lines_out) *. linef
        in
        let bw =
          if i < Array.length bandwidths then bandwidths.(i)
          else machine.Bw_machine.Machine.register_bandwidth
        in
        (boundary_name i, bytes /. bw))
      levels
  in
  let all =
    ("CPU", cpu_seconds) :: ("L1-Reg", register_seconds) :: boundary_seconds
  in
  let binding_resource, seconds =
    List.fold_left
      (fun (bn, bt) (n, t) -> if t > bt then (n, t) else (bn, bt))
      ("CPU", cpu_seconds) all
  in
  { flops;
    loads;
    stores;
    footprint_bytes;
    levels;
    memory_bytes_in;
    memory_bytes_out;
    cpu_seconds;
    register_seconds;
    boundary_seconds;
    seconds;
    binding_resource }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>flops %.3e  loads %.3e  stores %.3e  footprint %.3e B@," t.flops
    t.loads t.stores t.footprint_bytes;
  List.iteri
    (fun i lvl ->
      Format.fprintf ppf "L%d (%d B lines): %.3e lines in, %.3e out@," (i + 1)
        lvl.line_bytes lvl.lines_in lvl.lines_out)
    t.levels;
  Format.fprintf ppf "memory %.3e B in, %.3e B out@," t.memory_bytes_in
    t.memory_bytes_out;
  Format.fprintf ppf "predicted %.6f s (bound by %s)@]" t.seconds
    t.binding_resource
