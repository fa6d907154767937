open Bw_ir.Ast

exception Runtime_error of string

let () =
  Printexc.register_printer (function
    | Runtime_error m -> Some ("runtime error: " ^ m)
    | _ -> None)

let fail fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

type value = V_int of int | V_float of float

let pp_value ppf = function
  | V_int n -> Format.fprintf ppf "%d" n
  | V_float x -> Format.fprintf ppf "%.17g" x

type observation = {
  prints : value list;
  (* lazy: boxing every element of every live-out array is a large
     fraction of a short run, and pure-simulation consumers never look
     at the values — only the differential tests force them *)
  finals : (string * value array) list Lazy.t;
}

let equal_value a b =
  match (a, b) with
  | V_int x, V_int y -> x = y
  | V_float x, V_float y -> Float.equal x y (* NaN-safe, bit-meaningful *)
  | V_int _, V_float _ | V_float _, V_int _ -> false

let close_value tol a b =
  match (a, b) with
  | V_int x, V_int y -> x = y
  | V_float x, V_float y ->
    Float.equal x y
    || Float.abs (x -. y) <= tol *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | V_int _, V_float _ | V_float _, V_int _ -> false

let equal_observation_gen eq a b =
  let fa = Lazy.force a.finals and fb = Lazy.force b.finals in
  List.length a.prints = List.length b.prints
  && List.for_all2 eq a.prints b.prints
  && List.length fa = List.length fb
  && List.for_all2
       (fun (n1, v1) (n2, v2) ->
         n1 = n2
         && Array.length v1 = Array.length v2
         && Array.for_all2 eq v1 v2)
       fa fb

let equal_observation a b = equal_observation_gen equal_value a b
let close_observation ?(tol = 1e-9) a b = equal_observation_gen (close_value tol) a b

let pp_observation ppf o =
  Format.fprintf ppf "@[<v>prints:";
  List.iter (fun v -> Format.fprintf ppf " %a" pp_value v) o.prints;
  List.iter
    (fun (name, vs) ->
      Format.fprintf ppf "@,%s[%d]:" name (Array.length vs);
      Array.iteri
        (fun i v -> if i < 4 then Format.fprintf ppf " %a" pp_value v)
        vs;
      if Array.length vs > 4 then Format.fprintf ppf " ...")
    (Lazy.force o.finals);
  Format.fprintf ppf "@]"

type sink = {
  trace : Bw_machine.Trace_buffer.t;
  mutable flops : int;
  mutable int_ops : int;
}

let make_sink ~on_trace () =
  { trace = Bw_machine.Trace_buffer.create ~on_full:on_trace ();
    flops = 0;
    int_ops = 0 }

let discard_sink () =
  (* records are dropped on overflow (Trace_buffer resets after on_full)
     and by flush; only the flop/int-op tallies survive *)
  make_sink ~on_trace:(fun _ -> ()) ()

let flush_sink s = Bw_machine.Trace_buffer.flush s.trace

(* --- storage ------------------------------------------------------------ *)

type storage =
  | F_data of float array
  | I_data of int array

type var = {
  decl : decl;
  data : storage;
  base : int; (* virtual base address; 0 for scalars *)
  strides : int array; (* column-major element strides per dimension *)
}

(* Deterministic pseudo-random floats for Init_hash and read() inputs. *)
let[@inline] hash_float seed k =
  let z = ref ((k * 0x9e3779b9) + (seed * 0x85ebca6b) + 0x165667b1) in
  z := (!z lxor (!z lsr 30)) * 0x1ce4e5b9bf58476d;
  z := (!z lxor (!z lsr 27)) * 0x133111eb94d049bb;
  let bits = (!z lxor (!z lsr 31)) land ((1 lsl 52) - 1) in
  float_of_int bits /. float_of_int (1 lsl 52)

let rec init_value init dtype k =
  match (init, dtype) with
  | Init_zero, F64 -> V_float 0.0
  | Init_zero, I64 -> V_int 0
  | Init_linear (a, b), F64 -> V_float (a +. (b *. float_of_int k))
  | Init_linear (a, b), I64 -> V_int (int_of_float (a +. (b *. float_of_int k)))
  | Init_hash seed, F64 -> V_float (hash_float seed k)
  | Init_hash seed, I64 -> V_int (int_of_float (hash_float seed k *. 1e6))
  | Init_lanes (inner, lanes), dt ->
    if lanes <= 0 then fail "Init_lanes: non-positive lane count"
    else init_value inner dt (k / lanes)

(* Unboxed bulk versions of [init_value]: same formulas element for
   element, but filling a flat array directly instead of allocating a
   [value] per element.  Array init is a visible fraction of short
   simulations, so both engines use these. *)
let init_float_array init size =
  match init with
  | Init_zero -> Array.make size 0.0
  | Init_linear (a, b) ->
    let arr = Array.make size 0.0 in
    for k = 0 to size - 1 do
      Array.unsafe_set arr k (a +. (b *. float_of_int k))
    done;
    arr
  | Init_hash seed ->
    let arr = Array.make size 0.0 in
    for k = 0 to size - 1 do
      Array.unsafe_set arr k (hash_float seed k)
    done;
    arr
  | Init_lanes _ ->
    Array.init size (fun k ->
        match init_value init F64 k with
        | V_float x -> x
        | V_int _ -> assert false)

let init_int_array init size =
  match init with
  | Init_zero -> Array.make size 0
  | Init_hash seed ->
    let arr = Array.make size 0 in
    for k = 0 to size - 1 do
      Array.unsafe_set arr k (int_of_float (hash_float seed k *. 1e6))
    done;
    arr
  | Init_linear _ | Init_lanes _ ->
    Array.init size (fun k ->
        match init_value init I64 k with
        | V_int n -> n
        | V_float _ -> assert false)

let make_storage d =
  match d.dtype with
  | F64 -> F_data (init_float_array d.init (decl_size d))
  | I64 -> I_data (init_int_array d.init (decl_size d))

let column_major_strides dims =
  let n = List.length dims in
  let dims = Array.of_list dims in
  let strides = Array.make n 1 in
  for k = 1 to n - 1 do
    strides.(k) <- strides.(k - 1) * dims.(k - 1)
  done;
  strides

(* --- evaluation --------------------------------------------------------- *)

type env = {
  vars : (string, var) Hashtbl.t;
  indices : (string, int) Hashtbl.t; (* live loop indices *)
  sink : sink;
  mutable input_counter : int;
  mutable prints : value list;
}

let find_var env name =
  match Hashtbl.find_opt env.vars name with
  | Some v -> v
  | None -> fail "undeclared variable '%s'" name

let as_int what = function
  | V_int n -> n
  | V_float _ -> fail "%s: expected an integer value" what

let offset_of env var idxs =
  let dims = Array.of_list var.decl.dims in
  if List.length idxs <> Array.length dims then
    fail "array '%s': wrong subscript count" var.decl.var_name;
  let offset = ref 0 in
  List.iteri
    (fun k idx ->
      if idx < 1 || idx > dims.(k) then
        fail "array '%s': subscript %d = %d out of bounds [1,%d]"
          var.decl.var_name (k + 1) idx dims.(k);
      offset := !offset + ((idx - 1) * var.strides.(k)))
    idxs;
  ignore env;
  !offset

let element_addr var offset = var.base + (offset * dtype_bytes var.decl.dtype)

let read_storage var offset =
  match var.data with
  | F_data a -> V_float a.(offset)
  | I_data a -> V_int a.(offset)

let write_storage var offset v =
  match (var.data, v) with
  | F_data a, V_float x -> a.(offset) <- x
  | I_data a, V_int n -> a.(offset) <- n
  | F_data _, V_int _ | I_data _, V_float _ ->
    fail "type mismatch storing into '%s'" var.decl.var_name

let intrinsic name args =
  (* An opaque but deterministic smooth function of its arguments. *)
  let h = Hashtbl.hash name land 0xffff in
  let salt = 1.0 +. (float_of_int h /. 65536.0) in
  let acc =
    List.fold_left (fun acc x -> (0.5 *. acc) +. (0.75 *. x) +. 0.125) 0.0 args
  in
  (acc /. salt) +. (0.001 *. salt)

let rec eval env e : value =
  match e with
  | Int_lit n -> V_int n
  | Float_lit x -> V_float x
  | Scalar s -> (
    match Hashtbl.find_opt env.indices s with
    | Some i -> V_int i
    | None ->
      let var = find_var env s in
      if var.decl.dims <> [] then fail "array '%s' read as a scalar" s;
      read_storage var 0)
  | Element (a, idx_exprs) ->
    let var = find_var env a in
    let idxs =
      List.map (fun ie -> as_int "subscript" (eval env ie)) idx_exprs
    in
    let offset = offset_of env var idxs in
    Bw_machine.Trace_buffer.load env.sink.trace
      ~addr:(element_addr var offset)
      ~bytes:(dtype_bytes var.decl.dtype);
    read_storage var offset
  | Unary (op, a) -> eval_unary env op (eval env a)
  | Binary (op, a, b) -> eval_binary env op (eval env a) (eval env b)
  | Call (f, args) ->
    let xs =
      List.map
        (fun a ->
          match eval env a with
          | V_float x -> x
          | V_int _ -> fail "integer argument to intrinsic '%s'" f)
        args
    in
    env.sink.flops <- env.sink.flops + 1;
    V_float (intrinsic f xs)

and eval_unary env op v =
  match (op, v) with
  | Neg, V_int n ->
    env.sink.int_ops <- env.sink.int_ops + 1;
    V_int (-n)
  | Neg, V_float x ->
    env.sink.flops <- env.sink.flops + 1;
    V_float (-.x)
  | Abs, V_int n ->
    env.sink.int_ops <- env.sink.int_ops + 1;
    V_int (abs n)
  | Abs, V_float x ->
    env.sink.flops <- env.sink.flops + 1;
    V_float (Float.abs x)
  | Sqrt, V_float x ->
    env.sink.flops <- env.sink.flops + 1;
    V_float (sqrt x)
  | Sqrt, V_int _ -> fail "sqrt of an integer"
  | Int_to_float, V_int n ->
    env.sink.int_ops <- env.sink.int_ops + 1;
    V_float (float_of_int n)
  | Int_to_float, V_float _ -> fail "float() of a float"

and eval_binary env op a b =
  match (a, b) with
  | V_int x, V_int y ->
    env.sink.int_ops <- env.sink.int_ops + 1;
    V_int
      (match op with
      | Add -> x + y
      | Sub -> x - y
      | Mul -> x * y
      | Div -> if y = 0 then fail "integer division by zero" else x / y
      | Mod -> if y = 0 then fail "integer modulo by zero" else x mod y
      | Min -> min x y
      | Max -> max x y)
  | V_float x, V_float y ->
    env.sink.flops <- env.sink.flops + 1;
    V_float
      (match op with
      | Add -> x +. y
      | Sub -> x -. y
      | Mul -> x *. y
      | Div -> x /. y
      | Mod -> fail "mod of floats"
      | Min -> Float.min x y
      | Max -> Float.max x y)
  | V_int _, V_float _ | V_float _, V_int _ ->
    fail "mixed integer/float operands"

let rec eval_cond env c =
  match c with
  | Cmp (op, a, b) -> (
    let va = eval env a and vb = eval env b in
    let c =
      match (va, vb) with
      | V_int x, V_int y -> compare x y
      | V_float x, V_float y -> compare x y
      | V_int _, V_float _ | V_float _, V_int _ ->
        fail "comparison of mixed types"
    in
    match op with
    | Eq -> c = 0
    | Ne -> c <> 0
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0)
  | And (a, b) -> eval_cond env a && eval_cond env b
  | Or (a, b) -> eval_cond env a || eval_cond env b
  | Not a -> not (eval_cond env a)

let assign_lvalue env lv v =
  match lv with
  | Lscalar s ->
    let var = find_var env s in
    if var.decl.dims <> [] then fail "array '%s' assigned as a scalar" s;
    write_storage var 0 v
  | Lelement (a, idx_exprs) ->
    let var = find_var env a in
    let idxs =
      List.map (fun ie -> as_int "subscript" (eval env ie)) idx_exprs
    in
    let offset = offset_of env var idxs in
    Bw_machine.Trace_buffer.store env.sink.trace
      ~addr:(element_addr var offset)
      ~bytes:(dtype_bytes var.decl.dtype);
    write_storage var offset v

let input_value k dtype =
  match dtype with
  | F64 -> V_float (hash_float 0x1eaf k)
  | I64 -> V_int (int_of_float (hash_float 0x1eaf k *. 1e6))

let fresh_input env dtype =
  let k = env.input_counter in
  env.input_counter <- k + 1;
  input_value k dtype

let rec exec env stmt =
  match stmt with
  | Assign (lv, e) -> assign_lvalue env lv (eval env e)
  | Read_input lv ->
    let dtype =
      match lv with
      | Lscalar s | Lelement (s, _) -> (find_var env s).decl.dtype
    in
    assign_lvalue env lv (fresh_input env dtype)
  | Print e -> env.prints <- eval env e :: env.prints
  | If (c, t, e) -> List.iter (exec env) (if eval_cond env c then t else e)
  | For { index; lo; hi; step; body } ->
    let lo = as_int "loop lower bound" (eval env lo) in
    let hi = as_int "loop upper bound" (eval env hi) in
    let step = as_int "loop step" (eval env step) in
    if step <= 0 then fail "loop '%s': non-positive step %d" index step;
    if Hashtbl.mem env.indices index then
      fail "loop index '%s' already bound" index;
    let i = ref lo in
    while !i <= hi do
      Hashtbl.replace env.indices index !i;
      List.iter (exec env) body;
      i := !i + step
    done;
    Hashtbl.remove env.indices index

let run ?sink ?base_of ?(input_offset = 0) (program : program) =
  let sink = match sink with Some s -> s | None -> discard_sink () in
  Bw_ir.Check.check_exn program;
  let base_of =
    match base_of with
    | Some f -> f
    | None ->
      (* packed default layout *)
      let table = Hashtbl.create 16 in
      let next = ref 4096 in
      List.iter
        (fun d ->
          if is_array d then begin
            Hashtbl.add table d.var_name !next;
            next := !next + decl_bytes d
          end)
        program.decls;
      fun name -> try Hashtbl.find table name with Not_found -> 0
  in
  let vars = Hashtbl.create 16 in
  List.iter
    (fun d ->
      let base = if is_array d then base_of d.var_name else 0 in
      Hashtbl.add vars d.var_name
        { decl = d;
          data = make_storage d;
          base;
          strides = column_major_strides d.dims })
    program.decls;
  let env =
    { vars;
      indices = Hashtbl.create 8;
      sink;
      input_counter = input_offset;
      prints = [] }
  in
  List.iter (exec env) program.body;
  (* capture the (now final) storage; box only if someone forces *)
  let live =
    List.filter_map
      (fun d ->
        if List.mem d.var_name program.live_out then
          Some (d.var_name, (Hashtbl.find vars d.var_name).data)
        else None)
      program.decls
  in
  let finals =
    lazy
      (List.map
         (fun (name, data) ->
           ( name,
             match data with
             | F_data a -> Array.map (fun x -> V_float x) a
             | I_data a -> Array.map (fun n -> V_int n) a ))
         live)
  in
  { prints = List.rev env.prints; finals }
