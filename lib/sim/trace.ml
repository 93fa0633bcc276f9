type t = Vsync_obs.Tracer.t

let create_clock ~now = Vsync_obs.Tracer.create ~now
let create engine = create_clock ~now:(fun () -> Engine.now engine)
let obs t = t
