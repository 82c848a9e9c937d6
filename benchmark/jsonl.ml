(* A strict reader for the flat JSON objects [wanpoisson serve] prints,
   one per line: string keys; string, number, boolean or null values.
   Returns the fields with their raw value text (strings unquoted), or
   [None] when the line is not such an object. *)

let fields line =
  let n = String.length line in
  let pos = ref 0 in
  let fail () = raise Exit in
  let peek () = if !pos < n then line.[!pos] else fail () in
  let expect c = if peek () = c then incr pos else fail () in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then begin
        incr pos;
        Buffer.add_char b (peek ())
      end
      else Buffer.add_char b (peek ());
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let atom () =
    let start = !pos in
    while !pos < n && line.[!pos] <> ',' && line.[!pos] <> '}' do
      incr pos
    done;
    let s = String.sub line start (!pos - start) in
    let numeric c = (c >= '0' && c <= '9') || String.contains "+-.eE" c in
    match s with
    | "null" | "true" | "false" -> s
    | _ when s <> "" && String.for_all numeric s && float_of_string_opt s <> None -> s
    | _ -> fail ()
  in
  match
    expect '{';
    let acc = ref [] in
    if peek () <> '}' then begin
      let continue = ref true in
      while !continue do
        let k = str () in
        expect ':';
        let v = if peek () = '"' then str () else atom () in
        acc := (k, v) :: !acc;
        if peek () = ',' then incr pos else continue := false
      done
    end;
    expect '}';
    if !pos <> n then fail ();
    List.rev !acc
  with
  | fs -> Some fs
  | exception Exit -> None

let int_field fs k = Option.bind (List.assoc_opt k fs) int_of_string_opt
