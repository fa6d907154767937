open Bw_ir.Ast

let fail fmt = Printf.ksprintf (fun m -> raise (Interp.Runtime_error m)) fmt

type storage = F_data of float array | I_data of int array

type var = {
  decl : decl;
  data : storage;
  base : int;
  dims : int array;
  strides : int array;
}

type ctx = {
  vars : (string, var) Hashtbl.t;
  indices : (string, int ref) Hashtbl.t;
  sink : Interp.sink;
  mutable input_counter : int;
  mutable prints : Interp.value list;
}

let column_major_strides dims =
  let n = Array.length dims in
  let strides = Array.make n 1 in
  for k = 1 to n - 1 do
    strides.(k) <- strides.(k - 1) * dims.(k - 1)
  done;
  strides

let find_var ctx name =
  match Hashtbl.find_opt ctx.vars name with
  | Some v -> v
  | None -> fail "undeclared variable '%s'" name

(* [a[i]] with a 1-D array and a loop-index subscript is by far the most
   executed reference shape; recognise it so the whole access — index
   read, bounds check, flat offset — is one closure instead of a chain
   of three.  Returns the index cell when the shape matches. *)
let index_cell_1d ctx var idxs =
  match idxs with
  | [ Scalar s ] when Array.length var.dims = 1 ->
    Hashtbl.find_opt ctx.indices s
  | _ -> None

(* static type of an expression, used to pick the compilation scheme *)
let rec typeof ctx = function
  | Int_lit _ -> I64
  | Float_lit _ -> F64
  | Scalar s ->
    if Hashtbl.mem ctx.indices s then I64 else (find_var ctx s).decl.dtype
  | Element (a, _) -> (find_var ctx a).decl.dtype
  | Unary ((Neg | Abs), e) -> typeof ctx e
  | Unary (Sqrt, _) | Unary (Int_to_float, _) -> F64
  | Binary (Mod, _, _) -> I64
  | Binary (_, a, _) -> typeof ctx a
  | Call _ -> F64

(* offset closure for an array reference, with bounds checks *)
let compile_offset var idx_closures =
  let dims = var.dims and strides = var.strides in
  let n = Array.length dims in
  if Array.length idx_closures <> n then
    fail "array '%s': wrong subscript count" var.decl.var_name;
  if n = 1 then begin
    (* the common case; stride 0 is always 1 in column-major order *)
    let d0 = dims.(0) and c0 = idx_closures.(0) in
    let name = var.decl.var_name in
    fun () ->
      let idx = c0 () in
      if idx < 1 || idx > d0 then
        fail "array '%s': subscript 1 = %d out of bounds [1,%d]" name idx d0;
      idx - 1
  end
  else
    fun () ->
    let offset = ref 0 in
    for k = 0 to n - 1 do
      let idx = idx_closures.(k) () in
      if idx < 1 || idx > dims.(k) then
        fail "array '%s': subscript %d = %d out of bounds [1,%d]"
          var.decl.var_name (k + 1) idx dims.(k);
      offset := !offset + ((idx - 1) * strides.(k))
    done;
    !offset

let rec compile_int ctx e : unit -> int =
  match e with
  | Int_lit n -> fun () -> n
  | Scalar s -> (
    match Hashtbl.find_opt ctx.indices s with
    | Some cell -> fun () -> !cell
    | None -> (
      let var = find_var ctx s in
      match var.data with
      | I_data a -> fun () -> a.(0)
      | F_data _ -> fail "scalar '%s' is not an integer" s))
  | Element (a, idxs) -> (
    let var = find_var ctx a in
    let trace = ctx.sink.Interp.trace in
    let base = var.base in
    match var.data with
    | I_data data -> (
      match index_cell_1d ctx var idxs with
      | Some cell ->
        let d0 = var.dims.(0) in
        fun () ->
          let idx = !cell in
          if idx < 1 || idx > d0 then
            fail "array '%s': subscript 1 = %d out of bounds [1,%d]" a idx d0;
          let o = idx - 1 in
          Bw_machine.Trace_buffer.load trace ~addr:(base + (o * 8)) ~bytes:8;
          Array.unsafe_get data o
      | None ->
        let offset =
          compile_offset var
            (Array.of_list (List.map (compile_int ctx) idxs))
        in
        fun () ->
          let o = offset () in
          Bw_machine.Trace_buffer.load trace ~addr:(base + (o * 8)) ~bytes:8;
          Array.unsafe_get data o)
    | F_data _ -> fail "array '%s' is not an integer array" a)
  | Unary (Neg, x) ->
    let cx = compile_int ctx x in
    let sink = ctx.sink in
    fun () ->
      sink.Interp.int_ops <- sink.Interp.int_ops + 1;
      -cx ()
  | Unary (Abs, x) ->
    let cx = compile_int ctx x in
    let sink = ctx.sink in
    fun () ->
      sink.Interp.int_ops <- sink.Interp.int_ops + 1;
      abs (cx ())
  | Binary (op, a, b) ->
    let ca = compile_int ctx a and cb = compile_int ctx b in
    let sink = ctx.sink in
    let f =
      match op with
      | Add -> ( + )
      | Sub -> ( - )
      | Mul -> ( * )
      | Div ->
        fun x y -> if y = 0 then fail "integer division by zero" else x / y
      | Mod ->
        fun x y -> if y = 0 then fail "integer modulo by zero" else x mod y
      | Min -> min
      | Max -> max
    in
    fun () ->
      sink.Interp.int_ops <- sink.Interp.int_ops + 1;
      f (ca ()) (cb ())
  | Float_lit _ | Unary ((Sqrt | Int_to_float), _) | Call _ ->
    fail "expected an integer expression"

let rec compile_float ctx e : unit -> float =
  match e with
  | Float_lit x -> fun () -> x
  | Scalar s -> (
    let var = find_var ctx s in
    match var.data with
    | F_data a -> fun () -> a.(0)
    | I_data _ -> fail "scalar '%s' is not a float" s)
  | Element (a, idxs) -> (
    let var = find_var ctx a in
    let trace = ctx.sink.Interp.trace in
    let base = var.base in
    match var.data with
    | F_data data -> (
      match index_cell_1d ctx var idxs with
      | Some cell ->
        let d0 = var.dims.(0) in
        fun () ->
          let idx = !cell in
          if idx < 1 || idx > d0 then
            fail "array '%s': subscript 1 = %d out of bounds [1,%d]" a idx d0;
          let o = idx - 1 in
          Bw_machine.Trace_buffer.load trace ~addr:(base + (o * 8)) ~bytes:8;
          Array.unsafe_get data o
      | None ->
        let offset =
          compile_offset var
            (Array.of_list (List.map (compile_int ctx) idxs))
        in
        fun () ->
          let o = offset () in
          Bw_machine.Trace_buffer.load trace ~addr:(base + (o * 8)) ~bytes:8;
          Array.unsafe_get data o)
    | I_data _ -> fail "array '%s' is not a float array" a)
  | Unary (Neg, x) ->
    let cx = compile_float ctx x in
    let sink = ctx.sink in
    fun () ->
      sink.Interp.flops <- sink.Interp.flops + 1;
      -.cx ()
  | Unary (Abs, x) ->
    let cx = compile_float ctx x in
    let sink = ctx.sink in
    fun () ->
      sink.Interp.flops <- sink.Interp.flops + 1;
      Float.abs (cx ())
  | Unary (Sqrt, x) ->
    let cx = compile_float ctx x in
    let sink = ctx.sink in
    fun () ->
      sink.Interp.flops <- sink.Interp.flops + 1;
      sqrt (cx ())
  | Unary (Int_to_float, x) ->
    let cx = compile_int ctx x in
    let sink = ctx.sink in
    fun () ->
      sink.Interp.int_ops <- sink.Interp.int_ops + 1;
      float_of_int (cx ())
  | Binary (Mod, _, _) -> fail "mod of floats"
  | Binary (op, a, b) ->
    let f =
      match op with
      | Add -> ( +. )
      | Sub -> ( -. )
      | Mul -> ( *. )
      | Div -> ( /. )
      | Min -> Float.min
      | Max -> Float.max
      | Mod -> assert false
    in
    let sink = ctx.sink in
    (* constant operands skip a closure call per evaluation; note the
       generic case evaluates [b] before [a] (OCaml argument order), so
       the specialisations must not reorder any effects — a literal has
       none *)
    (match (a, b) with
    | _, Float_lit y ->
      let ca = compile_float ctx a in
      fun () ->
        sink.Interp.flops <- sink.Interp.flops + 1;
        f (ca ()) y
    | Float_lit x, _ ->
      let cb = compile_float ctx b in
      fun () ->
        sink.Interp.flops <- sink.Interp.flops + 1;
        f x (cb ())
    | _ ->
      let ca = compile_float ctx a and cb = compile_float ctx b in
      fun () ->
        sink.Interp.flops <- sink.Interp.flops + 1;
        f (ca ()) (cb ()))
  | Call (name, args) ->
    let cargs = List.map (compile_float ctx) args in
    let sink = ctx.sink in
    fun () ->
      let xs = List.map (fun c -> c ()) cargs in
      sink.Interp.flops <- sink.Interp.flops + 1;
      Interp.intrinsic name xs
  | Int_lit _ -> fail "expected a float expression"

let rec compile_cond ctx c : unit -> bool =
  match c with
  | Cmp (op, a, b) ->
    let cmp c =
      match op with
      | Eq -> c = 0
      | Ne -> c <> 0
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0
    in
    (match typeof ctx a with
    | I64 ->
      let ca = compile_int ctx a and cb = compile_int ctx b in
      fun () -> cmp (compare (ca ()) (cb ()))
    | F64 ->
      let ca = compile_float ctx a and cb = compile_float ctx b in
      fun () -> cmp (compare (ca ()) (cb ())))
  | And (a, b) ->
    let ca = compile_cond ctx a and cb = compile_cond ctx b in
    fun () -> ca () && cb ()
  | Or (a, b) ->
    let ca = compile_cond ctx a and cb = compile_cond ctx b in
    fun () -> ca () || cb ()
  | Not a ->
    let ca = compile_cond ctx a in
    fun () -> not (ca ())

(* compile a store of an already-computed value *)
let compile_store ctx lv : (unit -> unit) * [ `F of float ref | `I of int ref ]
    =
  match lv with
  | Lscalar s -> (
    let var = find_var ctx s in
    match var.data with
    | F_data a ->
      let cell = ref 0.0 in
      ((fun () -> a.(0) <- !cell), `F cell)
    | I_data a ->
      let cell = ref 0 in
      ((fun () -> a.(0) <- !cell), `I cell))
  | Lelement (a, idxs) -> (
    let var = find_var ctx a in
    let trace = ctx.sink.Interp.trace in
    let base = var.base in
    match (var.data, index_cell_1d ctx var idxs) with
    | F_data data, Some icell ->
      let d0 = var.dims.(0) in
      let cell = ref 0.0 in
      ( (fun () ->
          let idx = !icell in
          if idx < 1 || idx > d0 then
            fail "array '%s': subscript 1 = %d out of bounds [1,%d]" a idx d0;
          let o = idx - 1 in
          Bw_machine.Trace_buffer.store trace ~addr:(base + (o * 8)) ~bytes:8;
          Array.unsafe_set data o !cell),
        `F cell )
    | I_data data, Some icell ->
      let d0 = var.dims.(0) in
      let cell = ref 0 in
      ( (fun () ->
          let idx = !icell in
          if idx < 1 || idx > d0 then
            fail "array '%s': subscript 1 = %d out of bounds [1,%d]" a idx d0;
          let o = idx - 1 in
          Bw_machine.Trace_buffer.store trace ~addr:(base + (o * 8)) ~bytes:8;
          Array.unsafe_set data o !cell),
        `I cell )
    | F_data data, None ->
      let offset =
        compile_offset var (Array.of_list (List.map (compile_int ctx) idxs))
      in
      let cell = ref 0.0 in
      ( (fun () ->
          let o = offset () in
          Bw_machine.Trace_buffer.store trace ~addr:(base + (o * 8)) ~bytes:8;
          Array.unsafe_set data o !cell),
        `F cell )
    | I_data data, None ->
      let offset =
        compile_offset var (Array.of_list (List.map (compile_int ctx) idxs))
      in
      let cell = ref 0 in
      ( (fun () ->
          let o = offset () in
          Bw_machine.Trace_buffer.store trace ~addr:(base + (o * 8)) ~bytes:8;
          Array.unsafe_set data o !cell),
        `I cell ))

let lvalue_dtype ctx = function
  | Lscalar s | Lelement (s, _) -> (find_var ctx s).decl.dtype

let rec compile_stmt ctx stmt : unit -> unit =
  match stmt with
  | Assign (Lelement (a, idxs), e)
    when (let var = find_var ctx a in
          index_cell_1d ctx var idxs <> None) -> (
    (* fused store for the dominant [a[i] = ...] shape: value, index
       read, bounds check, trace record and array write in one closure.
       Same effect order as the generic path: the right-hand side is
       fully evaluated before the subscript is checked. *)
    let var = find_var ctx a in
    let icell = Option.get (index_cell_1d ctx var idxs) in
    let d0 = var.dims.(0) in
    let trace = ctx.sink.Interp.trace in
    let base = var.base in
    match var.data with
    | F_data data ->
      let ce = compile_float ctx e in
      fun () ->
        let x = ce () in
        let idx = !icell in
        if idx < 1 || idx > d0 then
          fail "array '%s': subscript 1 = %d out of bounds [1,%d]" a idx d0;
        let o = idx - 1 in
        Bw_machine.Trace_buffer.store trace ~addr:(base + (o * 8)) ~bytes:8;
        Array.unsafe_set data o x
    | I_data data ->
      let ce = compile_int ctx e in
      fun () ->
        let x = ce () in
        let idx = !icell in
        if idx < 1 || idx > d0 then
          fail "array '%s': subscript 1 = %d out of bounds [1,%d]" a idx d0;
        let o = idx - 1 in
        Bw_machine.Trace_buffer.store trace ~addr:(base + (o * 8)) ~bytes:8;
        Array.unsafe_set data o x)
  | Assign (lv, e) -> (
    let store, cell = compile_store ctx lv in
    match (lvalue_dtype ctx lv, cell) with
    | F64, `F cell ->
      let ce = compile_float ctx e in
      fun () ->
        cell := ce ();
        store ()
    | I64, `I cell ->
      let ce = compile_int ctx e in
      fun () ->
        cell := ce ();
        store ()
    | _ -> fail "type mismatch in assignment")
  | Read_input lv -> (
    let store, cell = compile_store ctx lv in
    match cell with
    | `F cell ->
      fun () ->
        (match Interp.input_value ctx.input_counter F64 with
        | Interp.V_float x -> cell := x
        | Interp.V_int _ -> assert false);
        ctx.input_counter <- ctx.input_counter + 1;
        store ()
    | `I cell ->
      fun () ->
        (match Interp.input_value ctx.input_counter I64 with
        | Interp.V_int x -> cell := x
        | Interp.V_float _ -> assert false);
        ctx.input_counter <- ctx.input_counter + 1;
        store ())
  | Print e -> (
    match typeof ctx e with
    | F64 ->
      let ce = compile_float ctx e in
      fun () -> ctx.prints <- Interp.V_float (ce ()) :: ctx.prints
    | I64 ->
      let ce = compile_int ctx e in
      fun () -> ctx.prints <- Interp.V_int (ce ()) :: ctx.prints)
  | If (c, t, e) ->
    let cc = compile_cond ctx c in
    let ct = compile_stmts ctx t and ce = compile_stmts ctx e in
    fun () -> if cc () then ct () else ce ()
  | For { index; lo; hi; step; body } ->
    let clo = compile_int ctx lo
    and chi = compile_int ctx hi
    and cstep = compile_int ctx step in
    if Hashtbl.mem ctx.indices index then
      fail "loop index '%s' already bound" index;
    let cell = ref 0 in
    Hashtbl.add ctx.indices index cell;
    let cbody = compile_stmts ctx body in
    Hashtbl.remove ctx.indices index;
    fun () ->
      let lo = clo () and hi = chi () and step = cstep () in
      if step <= 0 then fail "loop '%s': non-positive step %d" index step;
      let i = ref lo in
      while !i <= hi do
        cell := !i;
        cbody ();
        i := !i + step
      done

and compile_stmts ctx stmts : unit -> unit =
  match List.map (compile_stmt ctx) stmts with
  | [] -> fun () -> ()
  | [ f ] -> f (* single-statement bodies skip the dispatch loop *)
  | fs ->
    let compiled = Array.of_list fs in
    fun () -> Array.iter (fun f -> f ()) compiled

let run ?sink ?base_of ?(input_offset = 0) (program : program) =
  let sink = match sink with Some s -> s | None -> Interp.discard_sink () in
  Bw_ir.Check.check_exn program;
  let base_of =
    match base_of with
    | Some f -> f
    | None ->
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
      let size = decl_size d in
      let data =
        match d.dtype with
        | F64 -> F_data (Interp.init_float_array d.init size)
        | I64 -> I_data (Interp.init_int_array d.init size)
      in
      Hashtbl.add vars d.var_name
        { decl = d;
          data;
          base = (if is_array d then base_of d.var_name else 0);
          dims = Array.of_list d.dims;
          strides = column_major_strides (Array.of_list d.dims) })
    program.decls;
  let ctx =
    { vars;
      indices = Hashtbl.create 8;
      sink;
      input_counter = input_offset;
      prints = [] }
  in
  let main = compile_stmts ctx program.body in
  main ();
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
             | F_data a -> Array.map (fun x -> Interp.V_float x) a
             | I_data a -> Array.map (fun n -> Interp.V_int n) a ))
         live)
  in
  { Interp.prints = List.rev ctx.prints; finals }
