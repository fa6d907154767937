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

(* One enclosing loop of a reference group, outermost first. *)
type rloop = {
  l_trips : float;
  l_contrib : bool;  (** iterating it moves the reference to new data *)
  l_stride : float option;
      (** |bytes| between consecutive iterations; [None] = irregular
          (non-affine subscript, or affine through a scalar the loop body
          mutates) *)
  l_body : scope;
      (** the loop-body scope: its footprint is the reuse distance that
          repeated references see across iterations *)
}

(* A group of references to one array that touch the same data (equal
   affine subscript shape modulo constants), merged so that in-body
   reuse — a[i] read and written, or read at small offsets — is charged
   one line fetch, not several. *)
and group = {
  g_array : string;
  g_decl_bytes : float;
  g_write : bool;
  g_reads : int;  (** element reads per innermost execution *)
  g_writes : int;
  g_subs : Ast.expr list;
  g_affine : Affine.t option list;
  g_shape : (string * int) list list option;
      (** every subscript's affine terms, when all are affine: the key
          {!same_shape} compares, kept in step with [g_affine] *)
  g_dimprod : int list;  (** per-dim element multiplier (column-major) *)
  g_loops : rloop list;  (** outermost first *)
  g_sealed : bool;  (** wrapped by a loop; merging across scopes is off *)
  g_dedup_body : scope option;
      (** another group in the same scope covers the same data; charge
          this one only when that scope's footprint exceeds the cache *)
}

(* A snapshot of the groups of one scope, shared by every group it
   encloses.  Each of them asks whether the scope fits a cache level, so
   the footprint is summed once per line size and remembered. *)
and scope = {
  s_groups : group list;
  mutable s_fp_lines : (float * float) list;  (** line bytes -> lines *)
}

let scope_of groups = { s_groups = groups; s_fp_lines = [] }

(* What the walk needs of a declaration, computed once per prediction
   and passed down (never kept in the module: predictions run
   concurrently on serve's pool domains). *)
type decl_facts = {
  f_bytes : float;
  f_dimprod : int list;  (** per-dim element multiplier (column-major) *)
  f_float : bool;
}

let decl_facts (p : Ast.program) =
  let facts = Ast_util.Names.create 16 in
  List.iter
    (fun (d : Ast.decl) ->
      let _, rev =
        List.fold_left
          (fun (acc, out) extent -> (acc * extent, acc :: out))
          (1, []) d.Ast.dims
      in
      Ast_util.Names.replace facts d.Ast.var_name
        { f_bytes = float_of_int (Ast.decl_bytes d);
          f_dimprod = List.rev rev;
          f_float = d.Ast.dtype = Ast.F64 })
    p.Ast.decls;
  facts

let shape_of affine =
  if List.for_all Option.is_some affine then
    Some (List.map (fun a -> (Option.get a).Affine.terms) affine)
  else None

let make_group facts array subs ~write =
  let fact = Ast_util.Names.find_opt facts array in
  let affine = List.map Affine.of_expr subs in
  { g_array = array;
    g_decl_bytes =
      (match fact with Some f -> f.f_bytes | None -> infinity);
    g_write = write;
    g_reads = (if write then 0 else 1);
    g_writes = (if write then 1 else 0);
    g_subs = subs;
    g_affine = affine;
    g_shape = shape_of affine;
    g_dimprod =
      (match fact with
      | Some f -> f.f_dimprod
      | None -> List.map (fun _ -> 1) subs);
    g_loops = [];
    g_sealed = false;
    g_dedup_body = None }

(* Two groups address the same data when they name the same array with
   the same affine shape (constants may differ: a[i] and a[i-1] share
   lines).  Non-affine subscripts match only when syntactically equal. *)
let same_shape g1 g2 =
  String.equal g1.g_array g2.g_array
  &&
  match (g1.g_shape, g2.g_shape) with
  | Some k1, Some k2 -> List.equal Affine.equal_terms k1 k2
  | None, None -> (
    try List.for_all2 Ast.equal_expr g1.g_subs g2.g_subs
    with Invalid_argument _ -> false)
  | _ -> false

let total_iters g =
  List.fold_left (fun acc l -> acc *. l.l_trips) 1.0 g.g_loops

let contrib_elems g =
  List.fold_left
    (fun acc l -> if l.l_contrib then acc *. l.l_trips else acc)
    1.0 g.g_loops

(* Distinct bytes a group touches over its contributing loops
   (element-dense; reported as the program footprint). *)
let group_unique_bytes g =
  Float.min (contrib_elems g *. elem_bytes) g.g_decl_bytes

let spatial_fraction ~line stride =
  match stride with
  | Some s when s > 0.0 && s < line -> s /. line
  | _ -> 1.0

(* Distinct cache lines the group covers at [line]-byte granularity:
   elements of a dense run share lines, while strided and irregular
   elements occupy one line each — the reason a scattered working set
   overflows a cache its element count says should hold it.  The spatial
   fraction applies only at the innermost contributing loop: outer loops
   either continue the dense run (tile loops) or jump whole lines, and
   the declaration clamp catches run overlap either way. *)
let covered_lines g ~line =
  let decl_lines = Float.max 1.0 (g.g_decl_bytes /. line) in
  let cov = ref 1.0 and innermost = ref true in
  (* innermost loop first: recurse before visiting *)
  let rec walk = function
    | [] -> ()
    | l :: inner ->
      walk inner;
      if l.l_contrib then begin
        let f =
          if !innermost then spatial_fraction ~line l.l_stride else 1.0
        in
        cov := Float.min (!cov *. l.l_trips *. f) decl_lines;
        innermost := false
      end
  in
  walk g.g_loops;
  Float.max 1.0 (Float.min !cov decl_lines)

(* Scope footprint at line granularity: per array the max over its
   groups (they overlap the same storage), summed across arrays. *)
let scope_fp_lines groups ~line =
  let tbl = Ast_util.Names.create 16 in
  List.iter
    (fun g ->
      let cur =
        Option.value ~default:0.0 (Ast_util.Names.find_opt tbl g.g_array)
      in
      Ast_util.Names.replace tbl g.g_array
        (Float.max cur (covered_lines g ~line)))
    groups;
  Ast_util.Names.fold (fun _ v acc -> acc +. v) tbl 0.0

let scope_fp_bytes groups ~line = scope_fp_lines groups ~line *. line

let rec find_lines line = function
  | [] -> None
  | (l, lines) :: rest ->
    if Float.equal l line then Some lines else find_lines line rest

let scope_fits scope ~capacity ~line =
  let lines =
    match find_lines line scope.s_fp_lines with
    | Some lines -> lines
    | None ->
      let lines = scope_fp_lines scope.s_groups ~line in
      scope.s_fp_lines <- (line, lines) :: scope.s_fp_lines;
      lines
  in
  lines *. line <= capacity

(* Element-dense footprint, for reporting. *)
let fp_of_groups groups =
  let tbl = Ast_util.Names.create 16 in
  List.iter
    (fun g ->
      let cur =
        Option.value ~default:0.0 (Ast_util.Names.find_opt tbl g.g_array)
      in
      Ast_util.Names.replace tbl g.g_array
        (Float.max cur (group_unique_bytes g)))
    groups;
  Ast_util.Names.fold (fun _ v acc -> acc +. v) tbl 0.0

(* Merge the unsealed groups of one scope by shape.  The result lists
   the merged families last-first, then the sealed groups in order:
   later sums run over this order, so it must not change. *)
let merge_unsealed groups =
  let families = ref [] and sealed = ref [] in
  List.iter
    (fun g ->
      if g.g_sealed then sealed := g :: !sealed
      else
        match List.find_opt (fun h -> same_shape !h g) !families with
        | Some h ->
          h :=
            { !h with
              g_write = !h.g_write || g.g_write;
              g_reads = !h.g_reads + g.g_reads;
              g_writes = !h.g_writes + g.g_writes }
        | None -> families := ref g :: !families)
    groups;
  List.map ( ! ) !families @ List.rev !sealed

(* Same-scope groups covering the same data — an initialising store next
   to the accumulation loop that rereads it — would be double-charged.
   Keep the widest of each family as the representative; the rest are
   charged only when the scope's footprint exceeds the cache, mirroring
   the short-distance reuse they enjoy in reality. *)
let dedup_scope groups =
  let arr = Array.of_list groups in
  let n = Array.length arr in
  let shadowed = Array.make n false in
  let eligible i = (not shadowed.(i)) && Option.is_none arr.(i).g_dedup_body in
  let score g = (contrib_elems g, total_iters g) in
  for i = 0 to n - 1 do
    if eligible i then begin
      let family = ref [ i ] in
      for j = i + 1 to n - 1 do
        if eligible j && same_shape arr.(i) arr.(j) then family := j :: !family
      done;
      match !family with
      | [ _ ] -> ()
      | members ->
        let rep =
          List.fold_left
            (fun best j -> if score arr.(j) > score arr.(best) then j else best)
            i members
        in
        List.iter (fun j -> if j <> rep then shadowed.(j) <- true) members
    end
  done;
  if not (Array.exists Fun.id shadowed) then groups
  else begin
    let scope = scope_of groups in
    Array.to_list
      (Array.mapi
         (fun i g ->
           if shadowed.(i) then { g with g_dedup_body = Some scope } else g)
         arr)
  end

(* Stride in elements of one step of [index] through the group's
   subscripts under column-major layout; [None] when a non-affine
   subscript mentions the index (irregular). *)
let stride_of g index =
  let rec go affs subs prods acc irregular =
    match (affs, subs) with
    | [], _ | _, [] -> if irregular then None else Some acc
    | a :: affs', s :: subs' -> (
      let p = match prods with p :: _ -> p | [] -> 1 in
      let prods' = match prods with _ :: rest -> rest | [] -> [] in
      match a with
      | Some f ->
        go affs' subs' prods' (acc + (Affine.coeff f index * p)) irregular
      | None ->
        go affs' subs' prods' acc
          (irregular || Ast_util.mem_name index (Ast_util.expr_reads s)))
  in
  go g.g_affine g.g_subs g.g_dimprod 0 false

(* Substituting the wrapped index by its lower bound's affine form is
   what makes tile loops contribute: the element loop's subscript [i]
   never mentions the tile origin [ii], but [i] starts at [ii], so after
   the inner wrap the subscript's coefficients transfer to [ii].
   Returns [affs] itself when no subscript mentions [index]. *)
let subst_index index lo_affine affs =
  let rec mentions = function
    | [] -> false
    | Some f :: rest -> Affine.coeff f index <> 0 || mentions rest
    | None :: rest -> mentions rest
  in
  if not (mentions affs) then affs
  else
    List.map
      (fun a ->
        Option.map
          (fun f ->
            let c = Affine.coeff f index in
            if c = 0 then f
            else
              let dropped = Affine.drop_var f index in
              match lo_affine with
              | Some lo -> Affine.add dropped (Affine.scale c lo)
              | None -> dropped)
          a)
      affs

(* An affine subscript through a scalar the loop body itself mutates
   (FFT's [ib], [ip]) moves unpredictably within the loop: irregular. *)
let mentions_mutated mutated affs =
  mutated <> []
  && List.exists
       (fun a ->
         match a with
         | Some f ->
           List.exists
             (fun (v, _) -> Ast_util.mem_name v mutated)
             f.Affine.terms
         | None -> false)
       affs

(* Prepends the wrapped [body_groups] to [acc], last first. *)
let wrap_loop (l : Ast.loop) tcount body_groups acc =
  let body = scope_of body_groups in
  let index = l.Ast.index in
  let step = abs (Option.value ~default:1 (const_int l.Ast.step)) in
  let lo_affine = Affine.of_expr l.Ast.lo in
  let inner_indices = Ast_util.loop_indices l.Ast.body in
  let mutated =
    List.filter
      (fun v -> (not (Ast_util.mem_name v inner_indices)) && v <> index)
      (Ast_util.vars_written l.Ast.body)
  in
  List.fold_left
    (fun acc g ->
      let l_contrib, l_stride =
        if mentions_mutated mutated g.g_affine then (true, None)
        else
          match stride_of g index with
          | None -> (true, None)
          | Some 0 -> (false, Some 0.0)
          | Some s ->
            (true, Some (Float.abs (float_of_int (s * step)) *. elem_bytes))
      in
      let affine = subst_index index lo_affine g.g_affine in
      { g with
        g_affine = affine;
        g_shape =
          (if affine == g.g_affine then g.g_shape else shape_of affine);
        g_loops =
          { l_trips = tcount; l_contrib; l_stride; l_body = body }
          :: g.g_loops;
        g_sealed = true }
      :: acc)
    acc body_groups

(* ------------------------------------------------------------------ *)
(* Collecting groups from the program                                  *)
(* ------------------------------------------------------------------ *)

(* The collectors prepend a construct's groups to [acc] in reverse
   program order; [walk_stmts] turns each scope's list around. *)
let rec expr_groups facts acc (e : Ast.expr) =
  match e with
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Scalar _ -> acc
  | Ast.Element (a, subs) ->
    List.fold_left (expr_groups facts)
      (make_group facts a subs ~write:false :: acc)
      subs
  | Ast.Unary (_, a) -> expr_groups facts acc a
  | Ast.Binary (_, a, b) -> expr_groups facts (expr_groups facts acc a) b
  | Ast.Call (_, args) -> List.fold_left (expr_groups facts) acc args

let rec cond_groups facts acc (c : Ast.cond) =
  match c with
  | Ast.Cmp (_, a, b) -> expr_groups facts (expr_groups facts acc a) b
  | Ast.And (a, b) | Ast.Or (a, b) ->
    cond_groups facts (cond_groups facts acc a) b
  | Ast.Not a -> cond_groups facts acc a

let lvalue_groups facts acc (lv : Ast.lvalue) =
  match lv with
  | Ast.Lscalar _ -> acc
  | Ast.Lelement (a, subs) ->
    List.fold_left (expr_groups facts)
      (make_group facts a subs ~write:true :: acc)
      subs

let rec walk_stmts facts env stmts =
  List.rev (List.fold_left (walk_stmt facts env) [] stmts)
  |> merge_unsealed |> dedup_scope

and walk_stmt facts env acc (s : Ast.stmt) =
  match s with
  | Ast.Assign (lv, e) -> lvalue_groups facts (expr_groups facts acc e) lv
  | Ast.Read_input lv -> lvalue_groups facts acc lv
  | Ast.Print e -> expr_groups facts acc e
  | Ast.If (c, t, e) ->
    (* both arms charged: the model has no branch probabilities *)
    let acc = cond_groups facts acc c in
    let acc = List.rev_append (walk_stmts facts env t) acc in
    List.rev_append (walk_stmts facts env e) acc
  | Ast.For l ->
    let env' = bind_loop env l in
    let inner = walk_stmts facts env' l.Ast.body in
    wrap_loop l (trips env l) inner acc

(* ------------------------------------------------------------------ *)
(* Miss model                                                          *)
(* ------------------------------------------------------------------ *)

(* Lines fetched by one group at a cache level, walking its loops from
   the innermost out and tracking (misses, distinct lines covered):

   - a non-contributing loop repeats the inner reference pattern; the
     repetitions hit iff the loop body's footprint fits in the level;
   - a contributing loop multiplies both, scaled by the spatial fraction
     of its stride; once coverage saturates the array, further
     iterations revisit old lines — those hit iff the reuse distance
     (the body footprint; for irregular loops also the full working set,
     since revisits land far apart) fits in the level. *)
let group_misses g ~capacity ~line =
  let fits scope = scope_fits scope ~capacity ~line in
  match g.g_dedup_body with
  | Some scope when fits scope -> 0.0
  | _ ->
    let decl_lines = Float.max 1.0 (g.g_decl_bytes /. line) in
    let m = ref 1.0 and cov = ref 1.0 and innermost = ref true in
    (* innermost loop first: recurse before visiting *)
    let rec walk = function
      | [] -> ()
      | l :: inner ->
        walk inner;
        if not l.l_contrib then begin
          if not (fits l.l_body) then m := !m *. l.l_trips
        end
        else begin
          let f =
            if !innermost then spatial_fraction ~line l.l_stride else 1.0
          in
          let fresh = !cov *. l.l_trips *. f in
          let cov' = Float.min fresh decl_lines in
          m := !m *. l.l_trips *. f;
          if fresh > decl_lines then begin
            let revisits_hit =
              fits l.l_body
              &&
              match l.l_stride with
              | Some _ -> true
              | None -> cov' *. line <= capacity
            in
            if revisits_hit then m := !m *. (decl_lines /. fresh)
          end;
          cov := cov';
          innermost := false
        end
    in
    walk g.g_loops;
    Float.max 1.0 !m

(* ------------------------------------------------------------------ *)
(* Typed operation counts                                              *)
(* ------------------------------------------------------------------ *)

let rec is_float facts (e : Ast.expr) =
  match e with
  | Ast.Float_lit _ -> true
  | Ast.Int_lit _ -> false
  | Ast.Scalar s -> (
    match Ast_util.Names.find_opt facts s with
    | Some f -> f.f_float
    | None -> false (* loop index *))
  | Ast.Element (a, _) -> (
    match Ast_util.Names.find_opt facts a with
    | Some f -> f.f_float
    | None -> true)
  | Ast.Unary (Ast.Int_to_float, _) -> true
  | Ast.Unary (_, a) -> is_float facts a
  | Ast.Binary (_, a, b) -> is_float facts a || is_float facts b
  | Ast.Call _ -> true

(* Mirrors Interp's sink: only float arithmetic and intrinsic calls are
   flops; integer subscript arithmetic and Int_to_float are not. *)
let rec expr_flops facts (e : Ast.expr) =
  match e with
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Scalar _ -> 0.0
  | Ast.Element (_, subs) ->
    List.fold_left (fun acc s -> acc +. expr_flops facts s) 0.0 subs
  | Ast.Unary (Ast.Int_to_float, a) -> expr_flops facts a
  | Ast.Unary (_, a) ->
    expr_flops facts a +. (if is_float facts a then 1.0 else 0.0)
  | Ast.Binary (_, a, b) ->
    expr_flops facts a +. expr_flops facts b
    +. (if is_float facts a || is_float facts b then 1.0 else 0.0)
  | Ast.Call (_, args) ->
    List.fold_left (fun acc a -> acc +. expr_flops facts a) 1.0 args

let rec cond_flops facts (c : Ast.cond) =
  match c with
  | Ast.Cmp (_, a, b) -> expr_flops facts a +. expr_flops facts b
  | Ast.And (a, b) | Ast.Or (a, b) -> cond_flops facts a +. cond_flops facts b
  | Ast.Not a -> cond_flops facts a

let lvalue_flops facts (lv : Ast.lvalue) =
  match lv with
  | Ast.Lscalar _ -> 0.0
  | Ast.Lelement (_, subs) ->
    List.fold_left (fun acc s -> acc +. expr_flops facts s) 0.0 subs

let rec stmts_flops facts env mult stmts =
  List.fold_left (fun acc s -> acc +. stmt_flops facts env mult s) 0.0 stmts

and stmt_flops facts env mult (s : Ast.stmt) =
  match s with
  | Ast.Assign (lv, e) -> mult *. (expr_flops facts e +. lvalue_flops facts lv)
  | Ast.Read_input lv -> mult *. lvalue_flops facts lv
  | Ast.Print e -> mult *. expr_flops facts e
  | Ast.If (c, t, e) ->
    (mult *. cond_flops facts c)
    +. stmts_flops facts env mult t
    +. stmts_flops facts env mult e
  | Ast.For l ->
    let env' = bind_loop env l in
    let t = trips env l in
    (mult
    *. (expr_flops facts l.Ast.lo
       +. expr_flops facts l.Ast.hi
       +. expr_flops facts l.Ast.step))
    +. stmts_flops facts env' (mult *. t) l.Ast.body

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

let level_traffic groups ~write_policy ~capacity ~line =
  let linef = float_of_int line in
  let capf = float_of_int capacity in
  let write_allocate = write_policy = Bw_machine.Cache.Write_back in
  let write_through_lines () =
    List.fold_left
      (fun acc g ->
        acc +. (float_of_int g.g_writes *. total_iters g *. elem_bytes))
      0.0 groups
    /. linef
  in
  if scope_fp_bytes groups ~line:linef <= capf then begin
    (* everything fits: compulsory misses only — one fetch per distinct
       line of each accessed array, one writeback per written line *)
    let per_array pred =
      let tbl = Ast_util.Names.create 16 in
      List.iter
        (fun g ->
          if pred g then begin
            let cur =
              Option.value ~default:0.0
                (Ast_util.Names.find_opt tbl g.g_array)
            in
            Ast_util.Names.replace tbl g.g_array
              (Float.max cur (covered_lines g ~line:linef))
          end)
        groups;
      Ast_util.Names.fold (fun _ v acc -> acc +. v) tbl 0.0
    in
    let lines_in =
      per_array (fun g -> g.g_reads > 0 || (g.g_write && write_allocate))
    in
    let lines_out =
      match write_policy with
      | Bw_machine.Cache.Write_back -> per_array (fun g -> g.g_write)
      | Bw_machine.Cache.Write_through -> write_through_lines ()
    in
    (lines_in, lines_out)
  end
  else begin
    let sum pred =
      List.fold_left
        (fun acc g ->
          if pred g then acc +. group_misses g ~capacity:capf ~line:linef
          else acc)
        0.0 groups
    in
    let lines_in =
      sum (fun g -> g.g_reads > 0 || (g.g_write && write_allocate))
    in
    let lines_out =
      match write_policy with
      | Bw_machine.Cache.Write_back -> sum (fun g -> g.g_write)
      | Bw_machine.Cache.Write_through -> write_through_lines ()
    in
    (lines_in, lines_out)
  end

let predict ~(machine : Bw_machine.Machine.t) (p : Ast.program) =
  let facts = decl_facts p in
  let groups = walk_stmts facts empty_env p.Ast.body in
  let loads =
    List.fold_left
      (fun acc g -> acc +. (float_of_int g.g_reads *. total_iters g))
      0.0 groups
  in
  let stores =
    List.fold_left
      (fun acc g -> acc +. (float_of_int g.g_writes *. total_iters g))
      0.0 groups
  in
  let flops = stmts_flops facts empty_env 1.0 p.Ast.body in
  let footprint_bytes = fp_of_groups groups in
  let levels =
    List.map
      (fun (geo : Bw_machine.Cache.geometry) ->
        let lines_in, lines_out =
          level_traffic groups
            ~write_policy:machine.Bw_machine.Machine.cache_write_policy
            ~capacity:geo.Bw_machine.Cache.size_bytes
            ~line:geo.Bw_machine.Cache.line_bytes
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
    if i = n_levels - 1 then Printf.sprintf "Mem-L%d" (i + 1)
    else Printf.sprintf "L%d-L%d" (i + 2) (i + 1)
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
