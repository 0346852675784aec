//! Dropping an `HttpServer` while one of its handlers is serving a request:
//! the drop waits for that request to be answered, and no handler thread
//! outlives it. The file holds one test, so its process runs no other
//! test's threads and `/proc/self/task` counts only this one's.

use skipper_obs::router::HANDLER_THREADS;
use skipper_obs::{HttpServer, Response, Router};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn drop_joins_a_handler_that_is_mid_request() {
    let before = tasks();
    let entered = Arc::new(AtomicBool::new(false));
    let finished = Arc::new(AtomicBool::new(false));
    let router = Arc::new(Router::new());
    let (in_handler, done) = (Arc::clone(&entered), Arc::clone(&finished));
    let _route = router.register("GET", "/slow", move |_| {
        in_handler.store(true, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(300));
        done.store(true, Ordering::SeqCst);
        Response::ok_text("done")
    });
    let server = HttpServer::bind("127.0.0.1:0", router).unwrap();
    assert_eq!(tasks(), before + HANDLER_THREADS);

    let addr = server.addr();
    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /slow HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    });
    while !entered.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(server);
    assert!(
        finished.load(Ordering::SeqCst),
        "the drop returned before the request in flight was answered"
    );
    let response = client.join().unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "got: {response}");
    assert!(response.ends_with("\r\n\r\ndone"), "got: {response}");

    // A joined thread can linger in `/proc` for a moment after its join.
    let dropped = Instant::now();
    while tasks() != before {
        assert!(
            dropped.elapsed() < Duration::from_secs(2),
            "{} threads outlive the server",
            tasks() - before
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
