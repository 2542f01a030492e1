//! The `rfc-node` binary: run one endpoint of a two-process consensus
//! session (or both, in loopback) over TCP or Unix sockets.

use rfc_node::{run_loopback, run_session, NodeParams, SessionReport, Side};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::ExitCode;

const USAGE: &str = "\
rfc-node — two-process rational fair consensus over a real socket

USAGE:
    rfc-node serve --listen  <addr> [params]   host agents [0, n/2)
    rfc-node join  --connect <addr> [params]   host agents [n/2, n)
    rfc-node loopback [params]                 both endpoints in-process

ADDR:
    unix:<path>      Unix domain socket at <path>
    tcp:<host:port>  TCP socket

PARAMS (must match on both endpoints):
    --n <usize>       agents across both endpoints   [default: 16]
    --gamma <f64>     q = ceil(gamma * log2 n)       [default: 3.0]
    --seed <u64>      master seed                    [default: 21]
    --slack <usize>   async tick budget multiplier   [default: 3]
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("rfc-node: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

struct Cli {
    addr: Option<String>,
    np: NodeParams,
}

fn parse_cli(args: &[String], addr_flag: Option<&str>) -> Result<Cli, String> {
    let mut np = NodeParams {
        n: 16,
        gamma: 3.0,
        seed: 21,
        slack: 3,
    };
    let mut addr = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut grab = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--n" => np.n = grab()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--gamma" => np.gamma = grab()?.parse().map_err(|e| format!("--gamma: {e}"))?,
            "--seed" => np.seed = grab()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--slack" => np.slack = grab()?.parse().map_err(|e| format!("--slack: {e}"))?,
            f if Some(f) == addr_flag => addr = Some(grab()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if addr_flag.is_some() && addr.is_none() {
        return Err(format!("{} is required", addr_flag.unwrap()));
    }
    Ok(Cli { addr, np })
}

/// The two socket families behind one `Read + Write` session handle.
enum Sock {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            Sock::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Sock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            Sock::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Sock::Tcp(s) => s.flush(),
            Sock::Unix(s) => s.flush(),
        }
    }
}

fn bad_addr(addr: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("address must be unix:<path> or tcp:<host:port>, got {addr}"),
    )
}

fn listen(addr: &str) -> io::Result<Sock> {
    if let Some(path) = addr.strip_prefix("unix:") {
        // A stale socket from a crashed run would make bind fail. Nothing
        // else at the path is ours to delete: bind reports it instead.
        if std::fs::symlink_metadata(path).is_ok_and(|m| m.file_type().is_socket()) {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        eprintln!("rfc-node: listening on unix:{path}");
        let (sock, _) = listener.accept()?;
        Ok(Sock::Unix(sock))
    } else if let Some(hostport) = addr.strip_prefix("tcp:") {
        let listener = TcpListener::bind(hostport)?;
        eprintln!("rfc-node: listening on tcp:{}", listener.local_addr()?);
        let (sock, peer) = listener.accept()?;
        eprintln!("rfc-node: peer connected from {peer}");
        sock.set_nodelay(true)?;
        Ok(Sock::Tcp(sock))
    } else {
        Err(bad_addr(addr))
    }
}

/// Try `connect` up to 100 times, 50 ms apart: the server may not have
/// bound yet.
fn retry<T>(mut connect: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    for _ in 1..100 {
        if let Ok(sock) = connect() {
            return Ok(sock);
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    connect()
}

fn connect(addr: &str) -> io::Result<Sock> {
    if let Some(path) = addr.strip_prefix("unix:") {
        retry(|| UnixStream::connect(path)).map(Sock::Unix)
    } else if let Some(hostport) = addr.strip_prefix("tcp:") {
        let sock = retry(|| TcpStream::connect(hostport))?;
        sock.set_nodelay(true)?;
        Ok(Sock::Tcp(sock))
    } else {
        Err(bad_addr(addr))
    }
}

fn print_report(label: &str, r: &SessionReport) {
    println!(
        "{label} outcome={:?} digest={:#018x} ticks={} msgs_sent={} bytes_sent={}",
        r.outcome, r.digest, r.ticks, r.msgs_sent, r.bytes_sent
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first().map(String::as_str) else {
        return fail("missing mode");
    };
    match mode {
        "serve" | "join" => {
            let addr_flag = if mode == "serve" { "--listen" } else { "--connect" };
            let cli = match parse_cli(&args[1..], Some(addr_flag)) {
                Ok(c) => c,
                Err(e) => return fail(&e),
            };
            let addr = cli.addr.as_deref().unwrap();
            let sock = match if mode == "serve" { listen(addr) } else { connect(addr) } {
                Ok(s) => s,
                Err(e) => return fail(&format!("{addr}: {e}")),
            };
            let side = if mode == "serve" { Side::Low } else { Side::High };
            match run_session(sock, side, &cli.np) {
                Ok(r) => {
                    print_report(mode, &r);
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&format!("session failed: {e}")),
            }
        }
        "loopback" => {
            let cli = match parse_cli(&args[1..], None) {
                Ok(c) => c,
                Err(e) => return fail(&e),
            };
            match run_loopback(&cli.np) {
                Ok((low, high)) => {
                    print_report("serve", &low);
                    print_report("join", &high);
                    if low.digest != high.digest {
                        return fail("endpoint digests disagree");
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&format!("session failed: {e}")),
            }
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => fail(&format!("unknown mode {other}")),
    }
}
