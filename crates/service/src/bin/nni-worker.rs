//! `nni-worker`: the subprocess half of the process executor. Speaks the
//! framed `NNIWJOB`/`NNIWRES` protocol over one of two transports:
//!
//! * default — stdin/stdout pipes (spawned by the pool);
//! * `--listen <addr>` — bind and serve connections as they arrive, one
//!   thread per connection, printing `listening <bound-addr>` on stdout
//!   so a supervisor (or a test) can bind port 0 and learn the port.
//!
//! In every mode a clean end-of-stream ends that stream's serve loop; any
//! frame error — transport or decode — exits 1 (pipe mode) or drops the
//! connection with a log line (`--listen`, which keeps serving others).

use std::io::{stdin, stdout, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};

fn serve_stream(stream: TcpStream) -> Result<(), Box<dyn std::error::Error>> {
    let _ = stream.set_nodelay(true);
    let mut input = BufReader::new(stream.try_clone()?);
    let mut output = BufWriter::new(stream);
    nni_service::serve(&mut input, &mut output)?;
    output.flush()?;
    Ok(())
}

fn usage() -> ! {
    eprintln!("usage: nni-worker [--listen <addr>]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {
            let mut input = BufReader::new(stdin().lock());
            let mut output = BufWriter::new(stdout().lock());
            match nni_service::serve(&mut input, &mut output) {
                Ok(_) => {
                    let _ = output.flush();
                }
                Err(e) => {
                    eprintln!("nni-worker: {e}");
                    std::process::exit(1);
                }
            }
        }
        [flag, addr] if flag == "--listen" => {
            let listener = match TcpListener::bind(addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("nni-worker: bind {addr}: {e}");
                    std::process::exit(1);
                }
            };
            match listener.local_addr() {
                Ok(bound) => {
                    // The one line a supervisor parses; `--listen 127.0.0.1:0`
                    // is how tests get a free port race-free.
                    println!("listening {bound}");
                    let _ = stdout().flush();
                }
                Err(e) => {
                    eprintln!("nni-worker: local_addr: {e}");
                    std::process::exit(1);
                }
            }
            for conn in listener.incoming() {
                match conn {
                    Ok(stream) => {
                        std::thread::spawn(move || {
                            if let Err(e) = serve_stream(stream) {
                                eprintln!("nni-worker: connection ended: {e}");
                            }
                        });
                    }
                    Err(e) => eprintln!("nni-worker: accept: {e}"),
                }
            }
        }
        _ => usage(),
    }
}
